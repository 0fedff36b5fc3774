// Package dcs implements DCS, the distributed coordination service of the
// paper's evaluation (§5.2): a Chubby/ZooKeeper-like hierarchical namespace
// usable for distributed configuration and synchronization, with totally
// ordered updates, as an ElasticRMI elastic class.
//
// The znode tree lives in the pool's shared state. Every update receives a
// zxid from an atomic global counter and executes under a per-path lock, so
// updates are totally ordered (by zxid) and each znode observes a linear
// version history. Sequential znodes (ZooKeeper's -0000000001 suffixes) are
// supported.
//
// Elasticity is fine-grained and mirrors Fig. 5 of the paper: the
// avgLockAcqFailure and avgLockAcqLatency contention metrics gate growth —
// when writers mostly fight over locks, adding servers would not help.
package dcs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
)

// Exported errors (mapped from remote error strings by the test helpers).
var (
	// ErrNoNode is returned when the path does not exist.
	ErrNoNode = errors.New("dcs: no such znode")
	// ErrNodeExists is returned by Create for an existing path.
	ErrNodeExists = errors.New("dcs: znode exists")
	// ErrBadVersion is returned on conditional update version mismatch.
	ErrBadVersion = errors.New("dcs: version mismatch")
	// ErrNotEmpty is returned by Delete when the znode has children.
	ErrNotEmpty = errors.New("dcs: znode has children")
	// ErrBadPath is returned for malformed paths.
	ErrBadPath = errors.New("dcs: bad path")
)

//go:generate go run elasticrmi/cmd/ermi-gen -in dcs.go -out dcs_ermi.go

// Stat is znode metadata, in the spirit of the ZooKeeper Stat.
//
//ermi:codec
type Stat struct {
	Czxid       int64 // zxid of the create
	Mzxid       int64 // zxid of the last update
	Version     int64 // data version, starts at 0
	NumChildren int
}

// Remote method names.
const (
	// MethodCreate creates a znode: (CreateArgs) -> CreateReply.
	MethodCreate = "Create"
	// MethodExists checks a path: (PathArgs) -> ExistsReply.
	MethodExists = "Exists"
	// MethodGetData reads a znode: (PathArgs) -> GetDataReply.
	MethodGetData = "GetData"
	// MethodSetData updates a znode: (SetDataArgs) -> SetDataReply.
	MethodSetData = "SetData"
	// MethodDelete removes a znode: (DeleteArgs) -> DeleteReply.
	MethodDelete = "Delete"
	// MethodGetChildren lists children: (PathArgs) -> ChildrenReply.
	MethodGetChildren = "GetChildren"
	// MethodSync returns the latest zxid: (core.Empty) -> SyncReply.
	MethodSync = "Sync"
	// MethodAwait long-polls for a change: (AwaitArgs) -> AwaitReply. It is
	// the pull analogue of ZooKeeper watches: the call returns when the
	// znode's mzxid moves past SinceMzxid (or it is deleted), or when the
	// timeout expires.
	MethodAwait = "Await"
)

// Argument/reply structs.
//
//ermi:codec
type (
	// CreateArgs creates Path with Data; Sequential appends a total-order
	// suffix to the final path component.
	CreateArgs struct {
		Path       string
		Data       []byte
		Sequential bool
	}
	// CreateReply returns the actual created path (differs from the
	// requested one for sequential znodes).
	CreateReply struct {
		Path string
		Zxid int64
	}
	// PathArgs names a znode.
	PathArgs struct{ Path string }
	// ExistsReply reports presence and metadata.
	ExistsReply struct {
		Exists bool
		Stat   Stat
	}
	// GetDataReply returns data and metadata.
	GetDataReply struct {
		Data []byte
		Stat Stat
	}
	// SetDataArgs updates Path if ExpectVersion matches (-1 = any).
	SetDataArgs struct {
		Path          string
		Data          []byte
		ExpectVersion int64
	}
	// SetDataReply returns the new metadata.
	SetDataReply struct{ Stat Stat }
	// DeleteArgs removes Path if ExpectVersion matches (-1 = any).
	DeleteArgs struct {
		Path          string
		ExpectVersion int64
	}
	// DeleteReply acknowledges the delete.
	DeleteReply struct{ Deleted bool }
	// ChildrenReply lists child names (not full paths), sorted.
	ChildrenReply struct{ Children []string }
	// SyncReply reports the latest issued zxid.
	SyncReply struct{ Zxid int64 }
	// AwaitArgs long-polls Path for a modification after SinceMzxid.
	AwaitArgs struct {
		Path       string
		SinceMzxid int64
		// TimeoutMillis bounds the poll; default 1000, max 30000.
		TimeoutMillis int64
	}
	// AwaitReply reports what happened.
	AwaitReply struct {
		Changed bool
		Deleted bool
		Data    []byte
		Stat    Stat
	}
)

// Config tunes the server's elasticity logic.
type Config struct {
	// TargetLatency is the update-latency QoS bound. Default 5ms.
	TargetLatency time.Duration
	// IdleRate is the per-server update rate below which the pool shrinks.
	// Default 5/s.
	IdleRate float64
	// LockFailureHigh is the lock-acquisition failure rate (percent) above
	// which growth is suppressed, as in Fig. 5. Default 50.
	LockFailureHigh float64
}

func (c Config) withDefaults() Config {
	if c.TargetLatency == 0 {
		c.TargetLatency = 5 * time.Millisecond
	}
	if c.IdleRate == 0 {
		c.IdleRate = 5
	}
	if c.LockFailureHigh == 0 {
		c.LockFailureHigh = 50
	}
	return c
}

// Server is one member of the elastic coordination-service pool.
type Server struct {
	ctx *core.MemberContext
	cfg Config
	mux *core.Mux

	// Lock contention metrics over the current burst interval — the
	// avgLockAcqFailure / avgLockAcqLatency signals of Fig. 5.
	lockAttempts  atomic.Int64
	lockFailures  atomic.Int64
	lockWaitNanos atomic.Int64
}

var (
	_ core.Object    = (*Server)(nil)
	_ core.PoolSizer = (*Server)(nil)
)

// New creates the server factory for core.NewPool.
func New(cfg Config) core.Factory {
	cfg = cfg.withDefaults()
	return func(ctx *core.MemberContext) (core.Object, error) {
		s := &Server{ctx: ctx, cfg: cfg, mux: core.NewMux()}
		core.Handle(s.mux, MethodCreate, s.create)
		core.Handle(s.mux, MethodExists, s.exists)
		core.Handle(s.mux, MethodGetData, s.getData)
		core.Handle(s.mux, MethodSetData, s.setData)
		core.Handle(s.mux, MethodDelete, s.deleteNode)
		core.Handle(s.mux, MethodGetChildren, s.getChildren)
		core.Handle(s.mux, MethodSync, s.sync)
		core.Handle(s.mux, MethodAwait, s.await)
		// The root always exists.
		if err := s.ensureRoot(); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// HandleCall implements core.Object.
func (s *Server) HandleCall(method string, arg []byte) ([]byte, error) {
	return s.mux.HandleCall(method, arg)
}

func (s *Server) ensureRoot() error {
	exists, err := s.ctx.State.GetInt(nodeKey("/") + "/exists")
	if err != nil {
		return err
	}
	if exists == 1 {
		return nil
	}
	return s.withPathLock("/", func() error {
		exists, err := s.ctx.State.GetInt(nodeKey("/") + "/exists")
		if err != nil || exists == 1 {
			return err
		}
		return s.writeNode("/", nil, Stat{}, 0)
	})
}

// withPathLock executes fn holding the znode's lock, recording contention
// metrics exactly as the paper's CacheExplicit2 tracks write-lock
// acquisition failures and latency (Fig. 5).
func (s *Server) withPathLock(path string, fn func() error) error {
	lock := "dcs" + path
	start := time.Now()
	backoff := time.Millisecond
	var release func() error
	for {
		rel, ok, err := s.ctx.State.TryLock(lock)
		if err != nil {
			return fmt.Errorf("dcs lock %s: %w", path, err)
		}
		s.lockAttempts.Add(1)
		if ok {
			release = rel
			break
		}
		s.lockFailures.Add(1)
		time.Sleep(backoff)
		if backoff < 32*time.Millisecond {
			backoff *= 2
		}
	}
	s.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	defer func() { _ = release() }()
	return fn()
}

// Path/field mapping: a znode /a/b is stored as fields
// node/a/b/{exists,data,czxid,mzxid,version} and its parent's child list at
// node/a/children.

func nodeKey(path string) string {
	if path == "/" {
		return "node"
	}
	return "node" + path
}

func validatePath(path string) error {
	if path == "" || path[0] != '/' {
		return fmt.Errorf("%w: %q must start with '/'", ErrBadPath, path)
	}
	if path != "/" && strings.HasSuffix(path, "/") {
		return fmt.Errorf("%w: %q has a trailing slash", ErrBadPath, path)
	}
	if strings.Contains(path, "//") {
		return fmt.Errorf("%w: %q has empty components", ErrBadPath, path)
	}
	return nil
}

func parentOf(path string) string {
	if path == "/" {
		return ""
	}
	idx := strings.LastIndexByte(path, '/')
	if idx == 0 {
		return "/"
	}
	return path[:idx]
}

func nameOf(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

func (s *Server) nodeExists(path string) (bool, error) {
	v, err := s.ctx.State.GetInt(nodeKey(path) + "/exists")
	return v == 1, err
}

func (s *Server) readStat(path string) (Stat, error) {
	base := nodeKey(path)
	czxid, err := s.ctx.State.GetInt(base + "/czxid")
	if err != nil {
		return Stat{}, err
	}
	mzxid, err := s.ctx.State.GetInt(base + "/mzxid")
	if err != nil {
		return Stat{}, err
	}
	version, err := s.ctx.State.GetInt(base + "/version")
	if err != nil {
		return Stat{}, err
	}
	kids, err := s.childList(path)
	if err != nil {
		return Stat{}, err
	}
	return Stat{Czxid: czxid, Mzxid: mzxid, Version: version, NumChildren: len(kids)}, nil
}

func (s *Server) writeNode(path string, data []byte, st Stat, zxid int64) error {
	base := nodeKey(path)
	if err := s.ctx.State.PutInt(base+"/exists", 1); err != nil {
		return err
	}
	if err := s.ctx.State.PutBytes(base+"/data", data); err != nil {
		return err
	}
	if st.Czxid == 0 {
		st.Czxid = zxid
	}
	if err := s.ctx.State.PutInt(base+"/czxid", st.Czxid); err != nil {
		return err
	}
	if err := s.ctx.State.PutInt(base+"/mzxid", zxid); err != nil {
		return err
	}
	return s.ctx.State.PutInt(base+"/version", st.Version)
}

func (s *Server) childList(path string) ([]string, error) {
	raw, err := s.ctx.State.GetString(nodeKey(path) + "/children")
	if err != nil {
		return nil, err
	}
	if raw == "" {
		return nil, nil
	}
	kids := strings.Split(raw, ",")
	sort.Strings(kids)
	return kids, nil
}

func (s *Server) putChildList(path string, kids []string) error {
	return s.ctx.State.PutString(nodeKey(path)+"/children", strings.Join(kids, ","))
}

// nextZxid allocates the next transaction id; all updates are totally
// ordered by it.
func (s *Server) nextZxid() (int64, error) {
	return s.ctx.State.AddInt("zxid", 1)
}

func (s *Server) create(a CreateArgs) (CreateReply, error) {
	if err := validatePath(a.Path); err != nil {
		return CreateReply{}, err
	}
	if a.Path == "/" {
		return CreateReply{}, fmt.Errorf("create /: %w", ErrNodeExists)
	}
	parent := parentOf(a.Path)
	var reply CreateReply
	err := s.withPathLock(parent, func() error {
		ok, err := s.nodeExists(parent)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("create %s: parent: %w", a.Path, ErrNoNode)
		}
		path := a.Path
		if a.Sequential {
			seq, err := s.ctx.State.AddInt(nodeKey(parent)+"/cseq", 1)
			if err != nil {
				return err
			}
			path = fmt.Sprintf("%s%010d", a.Path, seq)
		}
		exists, err := s.nodeExists(path)
		if err != nil {
			return err
		}
		if exists {
			return fmt.Errorf("create %s: %w", path, ErrNodeExists)
		}
		zxid, err := s.nextZxid()
		if err != nil {
			return err
		}
		if err := s.writeNode(path, a.Data, Stat{Czxid: zxid}, zxid); err != nil {
			return err
		}
		kids, err := s.childList(parent)
		if err != nil {
			return err
		}
		kids = append(kids, nameOf(path))
		if err := s.putChildList(parent, kids); err != nil {
			return err
		}
		if _, err := s.ctx.State.AddInt("updates", 1); err != nil {
			return err
		}
		reply = CreateReply{Path: path, Zxid: zxid}
		return nil
	})
	if err != nil {
		return CreateReply{}, err
	}
	return reply, nil
}

func (s *Server) exists(a PathArgs) (ExistsReply, error) {
	if err := validatePath(a.Path); err != nil {
		return ExistsReply{}, err
	}
	ok, err := s.nodeExists(a.Path)
	if err != nil {
		return ExistsReply{}, err
	}
	if !ok {
		return ExistsReply{Exists: false}, nil
	}
	st, err := s.readStat(a.Path)
	if err != nil {
		return ExistsReply{}, err
	}
	return ExistsReply{Exists: true, Stat: st}, nil
}

func (s *Server) getData(a PathArgs) (GetDataReply, error) {
	if err := validatePath(a.Path); err != nil {
		return GetDataReply{}, err
	}
	ok, err := s.nodeExists(a.Path)
	if err != nil {
		return GetDataReply{}, err
	}
	if !ok {
		return GetDataReply{}, fmt.Errorf("get %s: %w", a.Path, ErrNoNode)
	}
	data, err := s.ctx.State.GetBytes(nodeKey(a.Path) + "/data")
	if err != nil {
		return GetDataReply{}, err
	}
	st, err := s.readStat(a.Path)
	if err != nil {
		return GetDataReply{}, err
	}
	return GetDataReply{Data: data, Stat: st}, nil
}

func (s *Server) setData(a SetDataArgs) (SetDataReply, error) {
	if err := validatePath(a.Path); err != nil {
		return SetDataReply{}, err
	}
	var reply SetDataReply
	err := s.withPathLock(a.Path, func() error {
		ok, err := s.nodeExists(a.Path)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("set %s: %w", a.Path, ErrNoNode)
		}
		st, err := s.readStat(a.Path)
		if err != nil {
			return err
		}
		if a.ExpectVersion >= 0 && st.Version != a.ExpectVersion {
			return fmt.Errorf("set %s: have v%d want v%d: %w", a.Path, st.Version, a.ExpectVersion, ErrBadVersion)
		}
		zxid, err := s.nextZxid()
		if err != nil {
			return err
		}
		st.Version++
		if err := s.writeNode(a.Path, a.Data, st, zxid); err != nil {
			return err
		}
		if _, err := s.ctx.State.AddInt("updates", 1); err != nil {
			return err
		}
		st.Mzxid = zxid
		reply = SetDataReply{Stat: st}
		return nil
	})
	if err != nil {
		return SetDataReply{}, err
	}
	return reply, nil
}

func (s *Server) deleteNode(a DeleteArgs) (DeleteReply, error) {
	if err := validatePath(a.Path); err != nil {
		return DeleteReply{}, err
	}
	if a.Path == "/" {
		return DeleteReply{}, fmt.Errorf("delete /: %w", ErrBadPath)
	}
	parent := parentOf(a.Path)
	err := s.withPathLock(parent, func() error {
		return s.withPathLock(a.Path, func() error {
			ok, err := s.nodeExists(a.Path)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("delete %s: %w", a.Path, ErrNoNode)
			}
			st, err := s.readStat(a.Path)
			if err != nil {
				return err
			}
			if a.ExpectVersion >= 0 && st.Version != a.ExpectVersion {
				return fmt.Errorf("delete %s: %w", a.Path, ErrBadVersion)
			}
			if st.NumChildren > 0 {
				return fmt.Errorf("delete %s: %w", a.Path, ErrNotEmpty)
			}
			base := nodeKey(a.Path)
			for _, f := range []string{"/exists", "/data", "/czxid", "/mzxid", "/version", "/children", "/cseq"} {
				if err := s.ctx.State.Delete(base + f); err != nil {
					return err
				}
			}
			kids, err := s.childList(parent)
			if err != nil {
				return err
			}
			name := nameOf(a.Path)
			keep := kids[:0]
			for _, k := range kids {
				if k != name {
					keep = append(keep, k)
				}
			}
			if err := s.putChildList(parent, keep); err != nil {
				return err
			}
			if _, err := s.nextZxid(); err != nil {
				return err
			}
			_, err = s.ctx.State.AddInt("updates", 1)
			return err
		})
	})
	if err != nil {
		return DeleteReply{}, err
	}
	return DeleteReply{Deleted: true}, nil
}

func (s *Server) getChildren(a PathArgs) (ChildrenReply, error) {
	if err := validatePath(a.Path); err != nil {
		return ChildrenReply{}, err
	}
	ok, err := s.nodeExists(a.Path)
	if err != nil {
		return ChildrenReply{}, err
	}
	if !ok {
		return ChildrenReply{}, fmt.Errorf("children %s: %w", a.Path, ErrNoNode)
	}
	kids, err := s.childList(a.Path)
	if err != nil {
		return ChildrenReply{}, err
	}
	return ChildrenReply{Children: kids}, nil
}

func (s *Server) sync(core.Empty) (SyncReply, error) {
	z, err := s.ctx.State.GetInt("zxid")
	if err != nil {
		return SyncReply{}, err
	}
	return SyncReply{Zxid: z}, nil
}

// await long-polls a znode for a change past SinceMzxid. It is serviced by
// polling the shared store (the store is the source of truth for every
// member, so a change through any member is observed).
func (s *Server) await(a AwaitArgs) (AwaitReply, error) {
	if err := validatePath(a.Path); err != nil {
		return AwaitReply{}, err
	}
	timeout := time.Duration(a.TimeoutMillis) * time.Millisecond
	if timeout <= 0 {
		timeout = time.Second
	}
	if timeout > 30*time.Second {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	interval := 2 * time.Millisecond
	for {
		ok, err := s.nodeExists(a.Path)
		if err != nil {
			return AwaitReply{}, err
		}
		if !ok {
			// Deleted (or never existed): report as deletion event.
			return AwaitReply{Changed: true, Deleted: true}, nil
		}
		st, err := s.readStat(a.Path)
		if err != nil {
			return AwaitReply{}, err
		}
		if st.Mzxid > a.SinceMzxid {
			data, err := s.ctx.State.GetBytes(nodeKey(a.Path) + "/data")
			if err != nil {
				return AwaitReply{}, err
			}
			return AwaitReply{Changed: true, Data: data, Stat: st}, nil
		}
		if !time.Now().Before(deadline) {
			return AwaitReply{Changed: false, Stat: st}, nil
		}
		time.Sleep(interval)
		if interval < 50*time.Millisecond {
			interval *= 2
		}
	}
}

// ChangePoolSize implements core.PoolSizer following Fig. 5's logic: when
// update latency exceeds the QoS bound, grow — unless lock contention (the
// avgLockAcqFailure rate or lock-wait share of latency) is the bottleneck,
// in which case more servers would only fight harder over the same locks.
func (s *Server) ChangePoolSize() int {
	stats := s.ctx.MethodCallStats()
	var updLatency time.Duration
	var updRate float64
	for _, m := range []string{MethodCreate, MethodSetData, MethodDelete} {
		if st, ok := stats[m]; ok {
			if st.AvgLatency > updLatency {
				updLatency = st.AvgLatency
			}
			updRate += st.RatePerSec
		}
	}
	attempts := s.lockAttempts.Swap(0)
	failures := s.lockFailures.Swap(0)
	waitNanos := s.lockWaitNanos.Swap(0)
	var failurePct, avgWait float64
	if attempts > 0 {
		failurePct = 100 * float64(failures) / float64(attempts)
		avgWait = float64(waitNanos) / float64(attempts)
	}

	if updLatency > s.cfg.TargetLatency {
		if failurePct > s.cfg.LockFailureHigh {
			return 0 // contention-bound: scaling out will not help (Fig. 5)
		}
		if avgWait >= 0.8*float64(updLatency) {
			return 0 // latency dominated by lock wait: same reasoning
		}
		return 2
	}
	if updRate < s.cfg.IdleRate && updLatency < s.cfg.TargetLatency/2 {
		return -1
	}
	return 0
}
