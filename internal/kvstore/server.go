package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// ServiceName is the transport service name of the key-value store.
const ServiceName = "kv"

//go:generate go run elasticrmi/cmd/ermi-gen -in server.go,store.go,session.go -out codec_ermi.go

// Wire messages. Every op has a request and reply struct; errors travel as
// string codes so clients can re-map them to the exported sentinel errors.
//
// The hot data-path messages are //ermi:codec-marked: Get/Put/Delete/CAS/
// Add/Keys and the lock calls travel in the generated binary encoding, with
// values ([]byte) decoding server-side as zero-copy views into the
// transport frame.
//
//ermi:codec
type (
	getReq   struct{ Key string }
	getReply struct{ Val Versioned }
	putReq   struct {
		Key string
		Val []byte
	}
	putReply struct{ Version uint64 }
	delReq   struct{ Key string }
	delReply struct{}
	casReq   struct {
		Key           string
		Val           []byte
		ExpectVersion uint64
	}
	casReply struct {
		Version uint64
		Current Versioned
	}
	addReq struct {
		Key   string
		Delta int64
	}
	addReply  struct{ Value int64 }
	keysReq   struct{ Prefix string }
	keysReply struct{ Keys []string }
	lockReq   struct {
		Name  string
		Owner string
		Lease time.Duration
	}
	lockReply struct{}
	unlockReq struct {
		Name  string
		Owner string
	}
	unlockReply struct{}
)

// State-transfer messages. Both carry a record stream (record.go): Export
// returns a node's whole state for migration, and Replicate delivers a
// primary's forward of one write, or a rebalance's import or cleanup.
// Recs decodes as a view into the frame; applyRecords copies what it
// keeps.
//
//ermi:codec
type (
	exportReq   struct{}
	exportReply struct{ Recs []byte }
	replReq     struct{ Recs []byte }
	replReply   struct{}
)

// lockRouteKey is the routing key of a named lock: locks shard (and
// replicate) over the same ring as data, under a reserved prefix.
func lockRouteKey(name string) string { return "lock/" + name }

// wireErrors is the one sentinel<->code table. A handler error matching a
// sentinel travels as its code (a remote error carries only a message),
// and clients map the code back, so errors.Is works across the wire. The
// code errors are built once, so an error reply allocates no error value.
var wireErrors = [...]struct{ err, code error }{
	{ErrNotFound, errors.New("NOT_FOUND")},
	{ErrCASMismatch, errors.New("CAS_MISMATCH")},
	{ErrLockHeld, errors.New("LOCK_HELD")},
	{ErrNotLockOwner, errors.New("NOT_LOCK_OWNER")},
	{ErrNoSession, errors.New("NO_SESSION")},
	{ErrWrongOwner, errors.New("WRONG_OWNER")},
	{ErrTooLarge, errors.New("TOO_LARGE")},
}

// wireError replaces a sentinel error by its wire code.
func wireError(err error) error {
	for _, w := range wireErrors {
		if errors.Is(err, w.err) {
			return w.code
		}
	}
	return err
}

// unwireError maps a remote error carrying a wire code back to its
// sentinel; any other error passes through.
func unwireError(err error) error {
	if err == nil {
		return nil // before declaring remote, which escapes: a nil error must not allocate
	}
	var remote *transport.RemoteError
	if errors.As(err, &remote) {
		for _, w := range wireErrors {
			if remote.Msg == w.code.Error() {
				return w.err
			}
		}
	}
	return err
}

// replStripes is the number of per-key ordering stripes. A stripe mutex is
// held across local-apply + backup-forward of each write, so replication
// deltas for one key reach a backup in apply order (two stripes never
// conflict semantically — a collision just serializes two unrelated keys).
const replStripes = 64

// replStripe is one ordering stripe. req is the request its writes
// forward to the backups: the stripe mutex already serializes those
// writes, so one request, and the record buffer in it, serves every
// forward under it.
type replStripe struct {
	sync.Mutex
	req replReq
}

// stripeKeep bounds the record buffer a stripe keeps between writes: one
// large value must not pin its copy in every stripe it touched.
const stripeKeep = 16 << 10

// replicateTimeout bounds one primary→backup forward. It is deliberately
// much shorter than the client call timeout: a hung backup costs writers
// one bounded stall before it is marked suspect, not a stall per write.
const replicateTimeout = 2 * time.Second

// Server exposes a Store over the transport protocol. When a cluster view
// is installed (SetView) the server is replication-aware: it is the
// primary for the keys whose replica set it heads and synchronously
// forwards every local write's resulting state to the key's backups
// before acknowledging.
type Server struct {
	store    *Store
	srv      *transport.Server
	sessions *sessionMgr

	viewMu   sync.Mutex
	rf       int
	ring     *route.Ring
	members  []route.Member
	links    map[string]*Client // replication clients by member addr
	suspects map[string]bool    // backups that failed a forward; skipped until the next view

	// onReplFailure, when set, is invoked (asynchronously, once per
	// suspicion transition) with the address of a backup that failed a
	// forward. The cluster router uses it to close the replication loop:
	// probe the accused node, then either fail it over (dead) or reinstall
	// the view and re-sync the writes it missed (transient) — without it a
	// suspect backup would silently degrade R until the next membership
	// change.
	onReplFailure func(addr string)

	stripes [replStripes]replStripe
}

// OnReplFailure installs the replication-failure callback. Call before the
// server participates in a replicated view.
func (s *Server) OnReplFailure(fn func(addr string)) {
	s.viewMu.Lock()
	s.onReplFailure = fn
	s.viewMu.Unlock()
}

// NewServer starts an in-memory store server on addr (":0" for any free
// port).
func NewServer(addr string, clock simclock.Clock) (*Server, error) {
	return NewServerDur(addr, clock, DurOptions{})
}

// NewServerDur starts a store server whose engine is durable under
// opts.Dir (recovering existing state there first); with opts.Dir == ""
// it is NewServer.
func NewServerDur(addr string, clock simclock.Clock, opts DurOptions) (*Server, error) {
	store, err := NewStoreDur(clock, opts)
	if err != nil {
		return nil, fmt.Errorf("kvstore server: %w", err)
	}
	s := &Server{store: store, sessions: newSessionMgr(clock)}
	srv, err := transport.ServeOpts(addr, s.handle, transport.ServerOptions{Express: sessionControlExpress})
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("kvstore server: %w", err)
	}
	s.srv = srv
	return s, nil
}

// sessionControlExpress puts the methods the dispatch table marks express
// on the transport's express lane, outside the bounded worker pool.
func sessionControlExpress(service, method string) bool {
	return service == ServiceName && methods[method].express
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr() }

// Close cleanly shuts the server down: stops the transport, releases the
// replication links, and flushes the store's durability layer.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.sessions.closeAll()
	s.viewMu.Lock()
	links := s.links
	s.links = nil
	s.ring = nil
	s.viewMu.Unlock()
	for _, cli := range links {
		cli.Close()
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash kills the server as a power cut would: the transport dies first,
// then the store's log is abandoned with buffered records unflushed. The
// ordering matters — once the transport is down no new ack can escape, so
// every reply a client DID receive had already passed its fsync point and
// survives recovery.
func (s *Server) Crash() error {
	err := s.srv.Close()
	s.sessions.closeAll()
	s.viewMu.Lock()
	links := s.links
	s.links = nil
	s.ring = nil
	s.viewMu.Unlock()
	for _, cli := range links {
		cli.Close()
	}
	if cerr := s.store.Crash(); err == nil {
		err = cerr
	}
	return err
}

// SetView installs the cluster's routing view on this node: the member
// table, the replication factor, and dialed links to the peers this node
// may need to forward to. The cluster router calls it on every membership
// change; installing a view clears backup suspicions (a repaired view is
// the signal a formerly failed peer is gone or healthy again). A server
// without a view (or with rf <= 1) replicates nothing.
//
// Installing a view also flushes every client session cache and waits for
// the acknowledgments: ownership may have moved (failover, lock migration,
// rebalance), so no cache entry granted under the old view may survive into
// the new one. The flush is bounded by the session lease — an unresponsive
// caching client delays a membership change by at most one TTL before its
// session is killed.
func (s *Server) SetView(t route.Table, rf int) {
	s.installView(t, rf)
	s.sessions.flushAll()
}

func (s *Server) installView(t route.Table, rf int) {
	// The ring is built for any multi-member view — even unreplicated ones,
	// where forward() ignores it — because isPrimary needs it: a lease
	// granted by a non-owner (stale client routing) would never be
	// invalidated by the key's writes.
	var ring *route.Ring
	if rf > 1 || len(t.Members) > 1 {
		ring = route.BuildRing(t)
	}
	s.viewMu.Lock()
	if s.links == nil {
		s.links = make(map[string]*Client)
	}
	s.rf = rf
	s.ring = ring
	s.members = t.Members
	s.suspects = make(map[string]bool)
	// Drop links to departed members; collect the peers that still need a
	// link. The dials themselves happen after the unlock: forward() takes
	// viewMu to pick its targets on every replicated write, so one
	// unreachable new member dialed under the lock would stall every write
	// on the node for a full dial timeout.
	current := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		current[m.Addr] = true
	}
	var stale []*Client
	for addr, cli := range s.links {
		if !current[addr] {
			stale = append(stale, cli)
			delete(s.links, addr)
		}
	}
	var missing []string
	if rf > 1 {
		self := s.Addr()
		for _, m := range t.Members {
			if m.Addr != self && s.links[m.Addr] == nil {
				missing = append(missing, m.Addr)
			}
		}
	}
	s.viewMu.Unlock()

	for _, cli := range stale {
		cli.Close()
	}
	if len(missing) == 0 {
		return
	}
	dialed := make(map[string]*Client, len(missing))
	var failed []string
	for _, addr := range missing {
		if cli, err := NewClient(addr); err == nil {
			dialed[addr] = cli
		} else {
			failed = append(failed, addr)
		}
	}
	// Re-acquire to install the links. A concurrent installView (or Crash,
	// which nils the link map) may have superseded this view while dialing,
	// so every link is re-validated against the state now present.
	// Superseded dials are only collected here and closed after the unlock:
	// Close waits for the connection's reader to drain, and forward() takes
	// viewMu on every replicated write.
	s.viewMu.Lock()
	member := make(map[string]bool, len(s.members))
	for _, m := range s.members {
		member[m.Addr] = true
	}
	var discard []*Client
	for addr, cli := range dialed {
		if s.links != nil && s.rf > 1 && member[addr] && s.links[addr] == nil {
			s.links[addr] = cli
		} else {
			discard = append(discard, cli)
		}
	}
	for _, addr := range failed {
		if member[addr] {
			s.suspects[addr] = true
		}
	}
	s.viewMu.Unlock()
	for _, cli := range discard {
		cli.Close()
	}
}

// SetSessionTTL changes the lease granted to session keepalives (existing
// sessions converge on their next keepalive). Deployment/test tuning; the
// default is DefaultSessionTTL.
func (s *Server) SetSessionTTL(d time.Duration) { s.sessions.setTTL(d) }

// FenceWrites forbids this node from acknowledging any write before until.
// The cluster router fences the survivors of a primary crash for one
// session TTL: a backup promoted over a dead primary must not confirm a
// conflicting write while the dead node's lease grants — which it cannot
// invalidate — may still be serving cached reads. Writes are applied and
// replicated immediately; only their acknowledgment waits.
func (s *Server) FenceWrites(until time.Time) { s.sessions.fenceWrites(until) }

// isPrimary reports whether this node heads the replica set of routeKey
// under its installed view. Servers without a view (single node, or rf <=
// 1 where no ring is installed) own everything they hold.
func (s *Server) isPrimary(routeKey string) bool {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if s.ring == nil {
		return true
	}
	idx := s.ring.Owner(routeKey)
	return idx >= 0 && idx < len(s.members) && s.members[idx].Addr == s.Addr()
}

// stripeFor locks the ordering stripe of routeKey, empties its record
// buffer, and returns it for the caller to release. The stripe is the key's
// 32-bit FNV-1a hash modulo replStripes, computed inline so a write
// allocates no hash state.
func (s *Server) stripeFor(routeKey string) *replStripe {
	h := uint32(2166136261)
	for i := 0; i < len(routeKey); i++ {
		h ^= uint32(routeKey[i])
		h *= 16777619
	}
	m := &s.stripes[h%replStripes]
	m.Lock()
	m.req.Recs = m.req.Recs[:0]
	return m
}

// release unlocks the stripe, first dropping a record buffer that a large
// write grew past stripeKeep.
func (m *replStripe) release() {
	if cap(m.req.Recs) > stripeKeep {
		m.req.Recs = nil
	}
	m.Unlock()
}

// forward synchronously replicates the record a write left in its
// stripe's request to the backups of routeKey; a write that failed, or
// changed nothing, left none, and forwards nothing. It is called with
// routeKey's stripe held, so a backup observes this key's records in
// apply order. A backup that fails a forward is marked suspect and skipped
// until the next view install — the write is still acknowledged
// (availability over strict R; the router's next repair restores the
// replica).
func (s *Server) forward(routeKey string, r *replReq) {
	if len(r.Recs) == 0 {
		return
	}
	s.viewMu.Lock()
	ring, rf := s.ring, s.rf
	if ring == nil || rf <= 1 {
		s.viewMu.Unlock()
		return
	}
	self := s.Addr()
	// Stack buffers sized for the usual replication factors; a larger rf
	// only makes the appends spill to the heap.
	var ownBuf [4]int
	var targetBuf [4]*Client
	var addrBuf [4]string
	targets, addrs := targetBuf[:0], addrBuf[:0]
	for _, idx := range ring.AppendOwners(ownBuf[:0], routeKey, rf) {
		addr := s.members[idx].Addr
		if addr == self || s.suspects[addr] {
			continue
		}
		if cli := s.links[addr]; cli != nil {
			targets = append(targets, cli)
			addrs = append(addrs, addr)
		}
	}
	s.viewMu.Unlock()
	for i, cli := range targets {
		if err := cli.replicate(r); err != nil {
			s.viewMu.Lock()
			newlySuspect := s.suspects != nil && !s.suspects[addrs[i]]
			if s.suspects != nil {
				s.suspects[addrs[i]] = true
			}
			hook := s.onReplFailure
			s.viewMu.Unlock()
			if newlySuspect && hook != nil {
				// Asynchronous: the stripe is held and the repair needs the
				// cluster's membership gate.
				go hook(addrs[i])
			}
		}
	}
}

func (s *Server) handle(req *transport.Request) ([]byte, error) {
	if req.Service != ServiceName {
		return nil, fmt.Errorf("unknown service %q", req.Service)
	}
	m, ok := methods[req.Method]
	if !ok {
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
	return m.serve(s, req)
}

// method is one entry of the dispatch table.
type method struct {
	serve func(*Server, *transport.Request) ([]byte, error)
	// express routes the method around the admission pool (see
	// sessionControlExpress); only handlers that never block may set it.
	express bool
}

// rpc adapts a typed handler to the dispatch table: decode the request,
// call the handler to fill the reply, map a sentinel error to its wire
// code, encode the reply. Each method recycles its request/reply pairs
// through a pool of its own, zeroing a pair before reuse: request values
// decode as views into the frame, and nothing may keep them past the
// handler — the store copies what it keeps (Put, CompareAndSwap,
// applyRecords).
func rpc[Q any, PQ interface {
	*Q
	transport.Unmarshaler
}, R any, PR interface {
	*R
	transport.Marshaler
}](fn func(*Server, *transport.Request, PQ, PR) error) func(*Server, *transport.Request) ([]byte, error) {
	pairs := &sync.Pool{New: func() any { return new(pair[Q, R]) }}
	return func(s *Server, req *transport.Request) ([]byte, error) {
		p := pairs.Get().(*pair[Q, R])
		defer func() {
			*p = pair[Q, R]{}
			pairs.Put(p)
		}()
		if err := transport.Decode(req.Payload, PQ(&p.req)); err != nil {
			return nil, err
		}
		if err := fn(s, req, &p.req, &p.rep); err != nil {
			return nil, wireError(err)
		}
		// The reply is Encode output handed over outright: the server
		// returns it to the payload arena once the response frame is
		// written.
		req.ReleaseReply = true
		return transport.Encode(PR(&p.rep)), nil
	}
}

// methods is the store's dispatch table. Every write applies locally and
// forwards to the backups under the key's stripe, then revokes cached
// copies (waiting for the acks) and respects any write fence before its
// ack can escape.
var methods = map[string]method{
	"Get": {serve: rpc(func(s *Server, _ *transport.Request, r *getReq, rep *getReply) (err error) {
		rep.Val, err = s.store.view(r.Key)
		return err
	})},
	"Put": {serve: rpc(func(s *Server, _ *transport.Request, r *putReq, rep *putReply) (err error) {
		st := s.stripeFor(r.Key)
		rep.Version, err = s.store.Put(r.Key, r.Val, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(r.Key, &st.req)
		st.release()
		if err != nil {
			return err
		}
		s.sessions.invalidate(r.Key)
		s.sessions.barrier()
		return nil
	})},
	"Delete": {serve: rpc(func(s *Server, _ *transport.Request, r *delReq, _ *delReply) error {
		st := s.stripeFor(r.Key)
		s.store.Delete(r.Key, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(r.Key, &st.req)
		st.release()
		s.sessions.invalidate(r.Key)
		s.sessions.barrier()
		return nil
	})},
	"CAS": {serve: rpc(func(s *Server, _ *transport.Request, r *casReq, rep *casReply) (err error) {
		st := s.stripeFor(r.Key)
		rep.Version, _, err = s.store.CompareAndSwap(r.Key, r.Val, r.ExpectVersion, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(r.Key, &st.req)
		st.release()
		if err != nil {
			return err
		}
		s.sessions.invalidate(r.Key)
		s.sessions.barrier()
		return nil
	})},
	"Add": {serve: rpc(func(s *Server, _ *transport.Request, r *addReq, rep *addReply) (err error) {
		st := s.stripeFor(r.Key)
		rep.Value, err = s.store.AddInt64(r.Key, r.Delta, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(r.Key, &st.req)
		st.release()
		if err != nil {
			return err
		}
		s.sessions.invalidate(r.Key)
		s.sessions.barrier()
		return nil
	})},
	"Keys": {serve: rpc(func(s *Server, _ *transport.Request, r *keysReq, rep *keysReply) error {
		rep.Keys = s.store.Keys(r.Prefix)
		return nil
	})},
	"TryLock": {serve: rpc(func(s *Server, _ *transport.Request, r *lockReq, _ *lockReply) error {
		routeKey := lockRouteKey(r.Name)
		st := s.stripeFor(routeKey)
		err := s.store.TryLock(r.Name, r.Owner, r.Lease, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(routeKey, &st.req)
		st.release()
		if err != nil {
			return err
		}
		s.sessions.barrier()
		return nil
	})},
	"Unlock": {serve: rpc(func(s *Server, _ *transport.Request, r *unlockReq, _ *unlockReply) error {
		routeKey := lockRouteKey(r.Name)
		st := s.stripeFor(routeKey)
		err := s.store.Unlock(r.Name, r.Owner, &st.req.Recs)
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		s.forward(routeKey, &st.req)
		st.release()
		if err != nil {
			return err
		}
		s.sessions.barrier()
		return nil
	})},
	"SessOpen": {serve: rpc(func(s *Server, req *transport.Request, _ *sessOpenReq, rep *sessOpenReply) error {
		p := req.Pusher()
		if p == nil {
			return errors.New("sessions require a pushable connection")
		}
		rep.ID, rep.TTL = s.sessions.open(p)
		return nil
	})},
	"GetLease": {serve: rpc(func(s *Server, _ *transport.Request, r *leaseReq, rep *leaseReply) error {
		if !s.isPrimary(r.Key) {
			return ErrWrongOwner
		}
		// Interest registration (and its sequence snapshot) precedes the
		// read: a write applied after the read is then guaranteed to find
		// the interest and carry a sequence above the snapshot, so the
		// client's install guard can tell "already reflected in this value"
		// from "revokes this value".
		snap, gen, noCache, err := s.sessions.lease(r.ID, r.Key)
		if err != nil {
			return err
		}
		v, err := s.store.view(r.Key)
		if err != nil {
			if !noCache {
				s.sessions.forget(r.ID, r.Key, gen)
			}
			return err
		}
		*rep = leaseReply{Val: v, Snapshot: snap, NoCache: noCache, Gen: gen}
		return nil
	})},
	// The session control plane — keepalives, invalidation acks, interest
	// drops, teardown — rides the express lane. Write handlers park in the
	// admission pool waiting for exactly these calls: admitted through the
	// same pool, a burst of writes blocked in invalidate could occupy every
	// worker and shed the acks that would release them — each write would
	// then degrade to a full lease-deadline wait, and keepalives shed past
	// their retry budget would kill healthy sessions. All four handlers are
	// sub-microsecond map updates that never block, as the lane requires:
	// they run inline on the connection's read loop.
	"SessKeep": {express: true, serve: rpc(func(s *Server, _ *transport.Request, r *sessKeepReq, rep *sessKeepReply) (err error) {
		rep.EventSeq, rep.TTL, err = s.sessions.keepalive(r.ID, r.Processed)
		return err
	})},
	"SessAck": {express: true, serve: rpc(func(s *Server, _ *transport.Request, r *sessAckReq, _ *sessAckReply) error {
		s.sessions.ack(r.ID, r.Seq)
		return nil
	})},
	"SessForget": {express: true, serve: rpc(func(s *Server, _ *transport.Request, r *sessForgetReq, _ *sessForgetReply) error {
		s.sessions.forget(r.ID, r.Key, r.Gen)
		return nil
	})},
	"SessClose": {express: true, serve: rpc(func(s *Server, _ *transport.Request, r *sessCloseReq, _ *sessCloseReply) error {
		s.sessions.close(r.ID)
		return nil
	})},
	// State transfers are applied directly, never re-forwarded: membership
	// changes run under the cluster's write gate and the router writes
	// every replica itself, and a Replicate is already the primary's
	// forward.
	"Export": {serve: rpc(func(s *Server, _ *transport.Request, _ *exportReq, rep *exportReply) error {
		rep.Recs = s.store.appendExport(nil)
		return nil
	})},
	"Replicate": {serve: rpc(func(s *Server, _ *transport.Request, r *replReq, _ *replReply) error {
		return s.store.applyRecords(r.Recs)
	})},
}
