package kvstore

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// ErrUnavailable is returned when every replica of a key's shard is
// unreachable (or the cluster has no nodes left to promote). Callers that
// can wait — core.State field access, lock acquisition — retry on it.
var ErrUnavailable = errors.New("kvstore: shard unavailable")

// Cluster is a sharded, replicated deployment of store nodes with a
// client-side router. Keys (and lock names) are partitioned across the
// node set by the same consistent-hash ring the routing layer uses
// (internal/route); with replication factor R every key lives on the R
// successor nodes of its hash (route.Ring.Owners) — the first is the
// primary all operations are routed to, the rest are backups the primary
// synchronously forwards to before acknowledging.
//
// Membership is elastic in both directions. AddNode brings a node up and
// migrates the shards (data and unexpired lock leases) whose ownership
// moves; RemoveNode is the planned departure — the victim's shards are
// handed off before it leaves, so nothing is lost even at R=1. A crashed
// node is detected by the router on the first failed operation: with R>1
// the dead node is dropped from the ring, the next replica of each
// affected key is promoted, surviving state is re-replicated to restore R,
// and the failed operation retries transparently. Node identity (UID) is a
// monotonic per-cluster counter, never a slice index, so ring identity
// cannot alias across membership changes.
//
// Membership changes hold the cluster's write gate: in-flight operations
// finish first, operations issued during a change wait it out (the bounded
// failover stall), and every operation otherwise observes exactly one
// owner per key.
type Cluster struct {
	clock simclock.Clock
	rf    int        // desired replication factor (effective: min(rf, nodes))
	dur   DurOptions // base durability config; Dir "" = in-memory nodes

	mu      sync.RWMutex // ops hold R; membership changes hold W
	nodes   []*clusterNode
	nextUID int64
	nextDir int // next node directory index (durable clusters)
	epoch   uint64
	table   route.Table
	ring    *route.Ring
	closed  bool

	repairMu  sync.Mutex
	repairing map[string]bool // replication repairs in flight, by accused addr

	// Session-layer state (see sessclient.go). fenceUntil is the write
	// fence installed on node death: until it passes, no node may ack a
	// write, because a session client of the dead primary may still be
	// serving cached reads under a lease that node granted and can no
	// longer revoke. It applies to nodes added later too — a node booted
	// during the window inherits the fence.
	sessMu      sync.Mutex
	sessClients map[*ClusterSession]struct{}
	sessTTL     time.Duration
	fenceUntil  time.Time
}

type clusterNode struct {
	srv  *Server
	cli  *Client
	addr string
	uid  int64
	dir  string // durability directory ("" for in-memory nodes)
}

// NewCluster starts n single-copy (R=1) store nodes on loopback.
func NewCluster(n int, clock simclock.Clock) (*Cluster, error) {
	return NewReplicated(n, 1, clock)
}

// NewReplicated starts n store nodes with replication factor rf: every
// key (and lock) is kept on min(rf, nodes) replicas, and the cluster
// survives the loss of up to rf-1 of a shard's replicas without losing
// acknowledged writes or held locks.
func NewReplicated(n, rf int, clock simclock.Clock) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kvstore cluster: need at least 1 node, got %d", n)
	}
	if rf < 1 {
		rf = 1
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	c := &Cluster{clock: clock, rf: rf}
	for i := 0; i < n; i++ {
		if err := c.startNodeLocked(); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.rebuildViewLocked()
	return c, nil
}

// NewDurable starts (or restarts) a replicated cluster whose nodes persist
// under per-node directories inside dur.Dir. On a directory that already
// holds node state — a whole-cluster power cut — it boots one node per
// surviving `node-*` directory instead of n fresh ones, each recovering
// its own snapshot + log tail, then runs the normal rebalance merge so
// every key and lock lands on the new ring's owners (node addresses change
// across a restart) at the newest recovered version/sequence. A node
// directory whose recovery fails is skipped as a crashed replica — its
// shards are covered by the others — as long as at least one node boots.
// With dur.Dir == "" it is NewReplicated.
func NewDurable(n, rf int, clock simclock.Clock, dur DurOptions) (*Cluster, error) {
	if dur.Dir == "" {
		return NewReplicated(n, rf, clock)
	}
	if n <= 0 {
		return nil, fmt.Errorf("kvstore cluster: need at least 1 node, got %d", n)
	}
	if rf < 1 {
		rf = 1
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	if err := os.MkdirAll(dur.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore cluster: %w", err)
	}
	c := &Cluster{clock: clock, rf: rf, dur: dur}
	dirs, err := filepath.Glob(filepath.Join(dur.Dir, "node-*"))
	if err != nil {
		return nil, fmt.Errorf("kvstore cluster: %w", err)
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		// Fresh cluster: n nodes on newly allocated directories.
		for i := 0; i < n; i++ {
			if err := c.startNodeLocked(); err != nil {
				c.Close()
				return nil, err
			}
		}
		c.rebuildViewLocked()
		return c, nil
	}
	// Restart: recover every surviving node directory.
	var recoverErrs []error
	for _, dir := range dirs {
		if info, serr := os.Stat(dir); serr != nil || !info.IsDir() {
			continue
		}
		if idx, ok := parseNodeDir(dir); ok && idx >= c.nextDir {
			c.nextDir = idx + 1
		}
		if err := c.startNodeDirLocked(dir); err != nil {
			recoverErrs = append(recoverErrs, err)
		}
	}
	if len(c.nodes) == 0 {
		c.Close()
		return nil, fmt.Errorf("kvstore cluster: restart from %s: no node recovered: %v", dur.Dir, errors.Join(recoverErrs...))
	}
	c.rebuildViewLocked()
	// The recovery merge: each node came back with its own pre-crash
	// shards, but the restarted ring assigns keys by the NEW addresses.
	// Rebalance re-derives placement from the union of recovered states
	// (newest version/sequence wins, exactly as after a failover).
	if err := c.rebalanceLocked(nil); err != nil {
		c.Close()
		return nil, fmt.Errorf("kvstore cluster: restart merge: %w", err)
	}
	return c, nil
}

func parseNodeDir(dir string) (int, bool) {
	base := filepath.Base(dir)
	if !strings.HasPrefix(base, "node-") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(base, "node-"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// startNodeLocked boots one node with a fresh stable UID (and, on durable
// clusters, a fresh node directory). The caller must rebuild the view
// afterwards.
func (c *Cluster) startNodeLocked() error {
	dir := ""
	if c.dur.Dir != "" {
		dir = filepath.Join(c.dur.Dir, fmt.Sprintf("node-%04d", c.nextDir))
		c.nextDir++
	}
	return c.startNodeDirLocked(dir)
}

// startNodeDirLocked boots one node persisted under dir ("" = in-memory),
// recovering whatever state the directory holds.
func (c *Cluster) startNodeDirLocked(dir string) error {
	opts := c.dur
	opts.Dir = dir
	srv, err := NewServerDur("127.0.0.1:0", c.clock, opts)
	if err != nil {
		return err
	}
	cli, err := NewClient(srv.Addr())
	if err != nil {
		srv.Close()
		return err
	}
	uid := c.nextUID
	c.nextUID++
	srv.OnReplFailure(c.handleReplFailure)
	c.sessMu.Lock()
	if c.sessTTL > 0 {
		srv.SetSessionTTL(c.sessTTL)
	}
	if !c.fenceUntil.IsZero() {
		// A node booted inside a failover fence window could otherwise ack
		// writes while a dead primary's lessees still serve cached reads.
		srv.FenceWrites(c.fenceUntil)
	}
	c.sessMu.Unlock()
	c.nodes = append(c.nodes, &clusterNode{srv: srv, cli: cli, addr: srv.Addr(), uid: uid, dir: dir})
	return nil
}

// handleReplFailure closes the replication loop when a primary fails a
// forward to a backup: without it, the suspect backup silently serves no
// replica (writes keep being acknowledged at reduced redundancy) until the
// next membership change. The accused node is probed — if unreachable it
// is failed over like any observed death; if it answers (a transient
// timeout), the view is reinstalled (clearing suspicions) and a rebalance
// re-syncs every write the backup missed, restoring R. One repair runs per
// accused address at a time.
func (c *Cluster) handleReplFailure(addr string) {
	c.repairMu.Lock()
	if c.repairing == nil {
		c.repairing = make(map[string]bool)
	}
	if c.repairing[addr] {
		c.repairMu.Unlock()
		return
	}
	c.repairing[addr] = true
	c.repairMu.Unlock()
	defer func() {
		c.repairMu.Lock()
		delete(c.repairing, addr)
		c.repairMu.Unlock()
	}()

	c.mu.RLock()
	var accused *clusterNode
	for _, n := range c.nodes {
		if n.addr == addr {
			accused = n
			break
		}
	}
	closed := c.closed
	c.mu.RUnlock()
	if accused == nil || closed {
		return
	}
	if c.probeDead(accused) {
		c.failNode(accused.uid)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.rebuildViewLocked()
	_ = c.rebalanceLocked(nil)
}

// effRF is the effective replication factor for the current node count.
func (c *Cluster) effRF() int {
	if len(c.nodes) < c.rf {
		return len(c.nodes)
	}
	return c.rf
}

// rebuildViewLocked derives a new epoch-stamped table and ring from the
// current node set and installs it on every node (so primaries know their
// backups).
func (c *Cluster) rebuildViewLocked() {
	c.epoch++
	t := route.Table{Epoch: c.epoch, Members: make([]route.Member, len(c.nodes))}
	for i, n := range c.nodes {
		t.Members[i] = route.Member{Addr: n.addr, UID: n.uid, Weight: route.DefaultWeight}
	}
	c.table = t
	c.ring = route.BuildRing(t)
	eff := c.effRF()
	for _, n := range c.nodes {
		n.srv.SetView(t, eff)
	}
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Addrs returns the node addresses.
func (c *Cluster) Addrs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.addr
	}
	return out
}

// Table returns the current epoch-stamped routing view.
func (c *Cluster) Table() route.Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.Clone()
}

// isUnavailable classifies an operation error: true for transport-level
// failures (dead connection, timeout, dial refusal) that failover can
// cure, false for application results (sentinel errors, remote errors) and
// for admission refusals (the node is alive, just busy).
func isUnavailable(err error) bool {
	if err == nil {
		return false
	}
	for _, sentinel := range []error{ErrNotFound, ErrCASMismatch, ErrLockHeld, ErrNotLockOwner} {
		if errors.Is(err, sentinel) {
			return false
		}
	}
	if errors.Is(err, transport.ErrOverloaded) || errors.Is(err, transport.ErrExpired) {
		return false
	}
	var remote *transport.RemoteError
	return !errors.As(err, &remote)
}

// run routes one operation to the primary of key's shard, holding the read
// gate across the call so membership changes serialize against in-flight
// operations. On a transport-level failure with R>1 it reports the node
// dead (dropping it from the ring and promoting backups) and retries on
// the new primary; the per-operation attempt budget is rf+1, after which
// ErrUnavailable surfaces to the caller.
func (c *Cluster) run(key string, op func(cli *Client) error) error {
	var lastErr error
	for attempt := 0; attempt <= c.rf; attempt++ {
		c.mu.RLock()
		if c.closed {
			c.mu.RUnlock()
			return errors.New("kvstore cluster: closed")
		}
		idx := c.ring.Owner(key)
		if idx < 0 {
			c.mu.RUnlock()
			return fmt.Errorf("kvstore cluster: no owner for %q: %w", key, ErrUnavailable)
		}
		n := c.nodes[idx]
		err := op(n.cli)
		c.mu.RUnlock()
		if err == nil || !isUnavailable(err) {
			return err
		}
		lastErr = err
		if c.rf <= 1 {
			// Single-copy deployment: there is no replica to promote, so
			// surface the failure instead of silently re-routing to a node
			// that cannot have the data.
			return err
		}
		// Double-check before executing the node: one slow reply (a pause,
		// a queue hiccup) must not destroy a healthy replica. A node that
		// answers the probe keeps its place and the operation just retries.
		if c.probeDead(n) {
			c.failNode(n.uid)
		}
	}
	return fmt.Errorf("kvstore cluster: all replicas failed (last: %v): %w", lastErr, ErrUnavailable)
}

// probeDead reports whether an accused node is provably unreachable, via a
// cheap read (a live node answers ErrNotFound). Used before every
// destructive failover decision so timeouts against healthy-but-slow nodes
// stay transient.
func (c *Cluster) probeDead(n *clusterNode) bool {
	_, err := n.cli.Get("\x00liveness-probe")
	return isUnavailable(err)
}

// Get fetches key from its shard's primary.
func (c *Cluster) Get(key string) (v Versioned, err error) {
	err = c.run(key, func(cli *Client) error { v, err = cli.Get(key); return err })
	return v, err
}

// Put stores value at key.
func (c *Cluster) Put(key string, value []byte) (ver uint64, err error) {
	err = c.run(key, func(cli *Client) error { ver, err = cli.Put(key, value); return err })
	return ver, err
}

// Delete removes key.
func (c *Cluster) Delete(key string) error {
	return c.run(key, func(cli *Client) error { return cli.Delete(key) })
}

// CompareAndSwap conditionally replaces key.
func (c *Cluster) CompareAndSwap(key string, value []byte, expectVersion uint64) (ver uint64, err error) {
	err = c.run(key, func(cli *Client) error {
		ver, err = cli.CompareAndSwap(key, value, expectVersion)
		return err
	})
	return ver, err
}

// AddInt64 atomically adds delta to the integer at key.
func (c *Cluster) AddInt64(key string, delta int64) (v int64, err error) {
	err = c.run(key, func(cli *Client) error { v, err = cli.AddInt64(key, delta); return err })
	return v, err
}

// TryLock acquires the named lock on the shard owning the name.
func (c *Cluster) TryLock(name, owner string, lease time.Duration) error {
	return c.run(lockRouteKey(name), func(cli *Client) error {
		return cli.TryLock(name, owner, lease)
	})
}

// Unlock releases the named lock.
func (c *Cluster) Unlock(name, owner string) error {
	return c.run(lockRouteKey(name), func(cli *Client) error {
		return cli.Unlock(name, owner)
	})
}

// Keys lists all keys with the prefix across all shards. Replicas make a
// key visible on several nodes, so the union is deduplicated. Like keyed
// operations, the scan fails over: a dead node is dropped and the scan
// retried against the promoted replicas.
func (c *Cluster) Keys(prefix string) ([]string, error) {
	var lastErr error
	for attempt := 0; attempt <= c.rf; attempt++ {
		keys, badUID, err := c.keysOnce(prefix)
		if err == nil {
			return keys, nil
		}
		if c.rf <= 1 || !isUnavailable(err) {
			return nil, err
		}
		lastErr = err
		c.mu.RLock()
		var bad *clusterNode
		for _, n := range c.nodes {
			if n.uid == badUID {
				bad = n
				break
			}
		}
		c.mu.RUnlock()
		if bad != nil && c.probeDead(bad) {
			c.failNode(badUID)
		}
	}
	return nil, fmt.Errorf("kvstore cluster: keys scan failed (last: %v): %w", lastErr, ErrUnavailable)
}

// keysOnce scans every node under the read gate; on failure it reports the
// failing node's UID for failover.
func (c *Cluster) keysOnce(prefix string) ([]string, int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, 0, errors.New("kvstore cluster: closed")
	}
	seen := make(map[string]struct{})
	for _, n := range c.nodes {
		ks, err := n.cli.Keys(prefix)
		if err != nil {
			return nil, n.uid, err
		}
		for _, k := range ks {
			seen[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, 0, nil
}

// AddNode brings up one more store node, installs the enlarged view, and
// migrates to every node the shards (data and unexpired lock leases) its
// new replica sets assign it. Routing switches to the new layout before
// the migration runs, but the whole change holds the write gate, so no
// operation ever observes a half-migrated layout.
func (c *Cluster) AddNode() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("kvstore cluster: closed")
	}
	if err := c.startNodeLocked(); err != nil {
		return err
	}
	c.rebuildViewLocked()
	return c.rebalanceLocked(nil)
}

// RemoveNode is the planned departure of the node at addr: its shards —
// data with versions and unexpired lock leases with owners and absolute
// expiries — are handed off to the shrunken ring's owners before the node
// is shut down, so planned scale-in loses nothing even at R=1.
func (c *Cluster) RemoveNode(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("kvstore cluster: closed")
	}
	if len(c.nodes) == 1 {
		return errors.New("kvstore cluster: cannot remove the last node")
	}
	idx := -1
	for i, n := range c.nodes {
		if n.addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("kvstore cluster: no node %s", addr)
	}
	victim := c.nodes[idx]
	// Snapshot the victim while it is still serving. If it is already dead
	// (no snapshot) this degrades to the crash path: replicas (R>1) cover
	// its shards.
	extra, _ := exportState(victim.cli)
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	c.rebuildViewLocked()
	err := c.rebalanceLocked(extra)
	victim.cli.Close()
	victim.srv.Close()
	if err == nil && victim.dir != "" {
		// The handoff landed everywhere, so the victim's on-disk state is
		// fully superseded. Removing it matters: left behind, a later
		// whole-cluster restart would boot a node from it and re-merge
		// tombstone-pruned or long-stale state into the cluster.
		os.RemoveAll(victim.dir)
	}
	return err
}

// CrashNode abruptly kills the node at addr — listener and connections
// closed, no handoff, membership left untouched — to simulate an
// unplanned failure. The router discovers the loss on the next operation
// that touches one of the victim's shards and fails over.
func (c *Cluster) CrashNode(addr string) error {
	c.mu.RLock()
	var victim *clusterNode
	for _, n := range c.nodes {
		if n.addr == addr {
			victim = n
			break
		}
	}
	c.mu.RUnlock()
	if victim == nil {
		return fmt.Errorf("kvstore cluster: no node %s", addr)
	}
	return victim.srv.Crash()
}

// Halt abruptly kills every node at once — the whole-rack power cut. No
// handoff runs and no node directory is cleaned up: each node's log is
// abandoned mid-write (buffered unfsynced records lost, exactly what real
// power loss does). A durable cluster comes back with NewDurable over the
// same directory, restoring every acked write and unexpired lease.
func (c *Cluster) Halt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		n.cli.Close()
	}
	for _, n := range c.nodes {
		n.srv.Crash()
	}
}

// failNode handles an observed node death: drop it from the membership,
// promote the next replica of each of its shards (rebuild + reinstall the
// view), and re-replicate surviving state to restore R. Idempotent per
// UID — concurrent observers of the same death collapse to one removal.
func (c *Cluster) failNode(uid int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	idx := -1
	for i, n := range c.nodes {
		if n.uid == uid {
			idx = i
			break
		}
	}
	if idx < 0 || len(c.nodes) == 1 {
		return // already handled, or nothing left to promote
	}
	victim := c.nodes[idx]
	c.nodes = append(c.nodes[:idx], c.nodes[idx+1:]...)
	victim.cli.Close()
	victim.srv.Close()
	c.fenceForFailover()
	c.rebuildViewLocked()
	// Repair is best-effort here: the promoted replicas already hold every
	// acknowledged write, and a failed repair just means a later membership
	// change redoes it.
	_ = c.rebalanceLocked(nil)
}

// registerSession records a ClusterSession so node deaths know caching
// clients exist (and must be fenced against).
func (c *Cluster) registerSession(cs *ClusterSession) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	if c.sessClients == nil {
		c.sessClients = make(map[*ClusterSession]struct{})
	}
	c.sessClients[cs] = struct{}{}
}

func (c *Cluster) dropSessionClient(cs *ClusterSession) {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	delete(c.sessClients, cs)
}

// SetSessionTTL sets the session lease duration on every current node (and
// every node added later). Tests shrink it so lease-expiry paths run in
// milliseconds.
func (c *Cluster) SetSessionTTL(d time.Duration) {
	c.sessMu.Lock()
	c.sessTTL = d
	c.sessMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		n.srv.SetSessionTTL(d)
	}
}

// fenceForFailover blocks write acks cluster-wide for one session TTL
// after a node death. The dead primary granted leases it can no longer
// revoke; its lessees keep serving cached reads until those leases run
// out, so the promoted replicas must not ack a conflicting write inside
// that window. No-op when no session client is registered — plain
// clusters keep the fast failover path. Caller holds c.mu (write).
func (c *Cluster) fenceForFailover() {
	c.sessMu.Lock()
	active := len(c.sessClients) > 0
	ttl := c.sessTTL
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	if active {
		if until := c.clock.Now().Add(ttl); until.After(c.fenceUntil) {
			c.fenceUntil = until
		}
	}
	until := c.fenceUntil
	c.sessMu.Unlock()
	if !active {
		return
	}
	for _, n := range c.nodes {
		n.srv.FenceWrites(until)
	}
}

// rebalanceLocked moves the cluster to the placement the current ring
// prescribes: every key and lock lives on exactly its min(rf, nodes)
// owners, at the newest version/sequence any node (or extra, the state of
// a departing node) holds. Runs under the write gate, so it never races
// an operation; the transfers are record streams through Replicate, which
// applies them directly and never re-forwards.
//
// Snapshots are full per-node exports (as the pre-replication migration's
// were) while actual transfers are only the moved/missing/outdated
// records, so network cost tracks the churn, not the keyspace. The export
// and the merge are O(total data) on the router, though — an incremental
// per-arc transfer (export only the hash ranges whose owner sets changed)
// is the known next step if membership changes under large keyspaces
// become frequent.
func (c *Cluster) rebalanceLocked(extra map[stateKey]stateRec) error {
	// Snapshot every source. A node that fails its export is probed: if
	// provably dead (a lingering crash nobody has routed to yet) it is
	// pruned from the membership and the snapshot restarts — exactly what
	// failover would do, without wedging a planned membership change behind
	// it. A node that is merely slow makes the whole change fail fast
	// (exportFailed) rather than silently dropping its state from the
	// authoritative merge; its snapshot stays nil, so it is planned to
	// receive everything it owns.
	var (
		per          []map[stateKey]stateRec
		exportFailed bool
	)
snapshot:
	for {
		per = make([]map[stateKey]stateRec, len(c.nodes))
		exportFailed = false
		for i, nd := range c.nodes {
			var err error
			if per[i], err = exportState(nd.cli); err == nil {
				continue
			}
			if len(c.nodes) > 1 && c.probeDead(nd) {
				c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
				nd.cli.Close()
				nd.srv.Close()
				c.rebuildViewLocked()
				continue snapshot
			}
			exportFailed = true
		}
		break
	}
	eff := c.effRF()

	// Authoritative merged state: newest version / sequence wins.
	merged := make(map[stateKey]stateRec, len(extra))
	maps.Copy(merged, extra)
	for _, state := range per {
		for k, h := range state {
			if cur, ok := merged[k]; !ok || h.seq > cur.seq {
				merged[k] = h
			}
		}
	}

	// Plan: every owner lacking the newest state imports its record; every
	// other holder drops its copy.
	type plan struct {
		imports          []byte
		drops, lockDrops []string
	}
	plans := make([]plan, len(c.nodes))
	for k, h := range merged {
		owners := c.ring.Owners(k.routeKey(), eff)
		for _, o := range owners {
			if cur, ok := per[o][k]; !ok || cur.seq < h.seq {
				plans[o].imports = append(plans[o].imports, h.rec...)
			}
		}
		for i, state := range per {
			if _, ok := state[k]; !ok || slices.Contains(owners, i) {
				continue
			}
			if k.kind == recLock {
				plans[i].lockDrops = append(plans[i].lockDrops, k.name)
			} else {
				plans[i].drops = append(plans[i].drops, k.name)
			}
		}
	}

	// Apply imports first. A target that fails (e.g. a crashed node whose
	// death no operation has observed yet) is skipped, not fatal: its
	// shards stay covered by the other owners, and the next membership
	// change repairs it — or the router's failover drops it for good.
	importFailed := make([]bool, len(c.nodes))
	anyFailed := false
	for i, p := range plans {
		if len(p.imports) > 0 && c.nodes[i].cli.apply(p.imports) != nil {
			importFailed[i], anyFailed = true, true
		}
	}
	if !anyFailed {
		// Cleanup of off-owner copies runs only after every planned import
		// landed: deleting a source copy while a destination copy failed to
		// materialize could orphan a key. Cleanup failures are benign —
		// extra copies never win over newer owner state (version/sequence
		// gates) and the next rebalance re-cleans.
		for i, p := range plans {
			recs := appendDropRec(appendDropRec(nil, recDrop, p.drops), recLockDrop, p.lockDrops)
			if len(recs) > 0 {
				_ = c.nodes[i].cli.apply(recs)
			}
		}
		return c.rebalanceResult(exportFailed)
	}
	// Redundancy audit: the change is an error only if some key or lock
	// ended up with zero live replicas among its owners. Every owner held
	// the newest state or was planned to import it, so one whose import
	// did not fail holds it.
	for k := range merged {
		if !slices.ContainsFunc(c.ring.Owners(k.routeKey(), eff), func(o int) bool { return !importFailed[o] }) {
			return fmt.Errorf("rebalance: %v has no live replica: %w", k, ErrUnavailable)
		}
	}
	return c.rebalanceResult(exportFailed)
}

// exportState fetches one node's whole state, indexed for the merge.
func exportState(cli *Client) (map[stateKey]stateRec, error) {
	var rep exportReply
	if err := call(cli.conn, "Export", &exportReq{}, &rep); err != nil {
		return nil, err
	}
	return indexExport(rep.Recs)
}

// rebalanceResult surfaces a partial snapshot: a slow-but-alive node whose
// export failed kept its keys out of the merge, so the membership change
// must report failure (planned AddNode/RemoveNode fail fast, as the
// pre-replication migration did) instead of leaving the gap silent. No
// destructive step has touched the unmerged keys — cleanup only ever
// removes copies of keys present in the merge.
func (c *Cluster) rebalanceResult(exportFailed bool) error {
	if exportFailed {
		return fmt.Errorf("kvstore cluster: rebalance incomplete, a node failed its export: %w", ErrUnavailable)
	}
	return nil
}

// Close shuts all nodes down.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		n.cli.Close()
	}
	for _, n := range c.nodes {
		n.srv.Close()
	}
}

// Shared is the store surface the ElasticRMI core needs: keyed reads and
// writes, atomic add, leased locks and prefix scans. *Client (one node),
// *Cluster (sharded, replicated) and *ClusterSession (a Cluster read
// through session caches) implement it; compare-and-swap is not part of
// it, since the core never calls it, and only *Client and *Cluster offer
// it. Typed field access (strings, integers) is core.State's job, over Get
// and Put.
//
// Get, Put and AddInt64 borrow their key: the caller may reuse the key's
// memory as soon as the call returns (core.State builds field keys in a
// pooled buffer), so an implementation that keeps the key — a cache entry,
// an index, an error value — must keep a copy (strings.Clone). Formatting
// the key into a new string is a copy too. Put borrows its value the same
// way.
type Shared interface {
	Get(key string) (Versioned, error)
	Put(key string, value []byte) (uint64, error)
	Delete(key string) error
	AddInt64(key string, delta int64) (int64, error)
	TryLock(name, owner string, lease time.Duration) error
	Unlock(name, owner string) error
	Keys(prefix string) ([]string, error)
}

var (
	_ Shared = (*Cluster)(nil)
	_ Shared = (*Client)(nil)
)
