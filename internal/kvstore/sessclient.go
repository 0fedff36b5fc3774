package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// This file is the client half of the session layer (server half:
// session.go): a lease-backed, invalidation-coherent read cache. A cache
// hit is a map lookup — no network — and the protocol guarantees a hit can
// never return a value older than the last acknowledged write (see
// store.go, "Sessions and caching").

// DefaultMaxEntries is the default per-session cache capacity.
const DefaultMaxEntries = 4096

// SessionOptions configures a client session.
type SessionOptions struct {
	// MaxEntries bounds the cache (LRU eviction; an evicted key's server-
	// side interest is dropped with it). <= 0 selects DefaultMaxEntries.
	MaxEntries int
	// Clock is the session's time source (nil = wall clock). The lease
	// window is measured on this clock from each keepalive's *send* instant,
	// so an absolute offset against the server cannot extend serving past
	// the server-side lease.
	Clock simclock.Clock
}

// cacheEntry is one cached key. The entry is its own node in the session's
// LRU list, and entries freed by invalidation, eviction or flush are kept
// on a bounded free list (linked through next), so an install reuses one.
type cacheEntry struct {
	key        string
	val        Versioned
	gen        uint64 // the lease grant (leaseReply.Gen) an eviction forgets
	prev, next *cacheEntry
}

// Session is a keepalive-backed session with one store node, holding a
// bounded, version-tagged read cache the node invalidates before it
// acknowledges any conflicting write. Safe for concurrent use.
//
// A session that loses its node (connection failure, keepalive failure,
// lease expiry) goes dead: cached entries stop being served instantly and
// every operation returns ErrNoSession. It does not resurrect — open a new
// session (ClusterSession does this automatically on failover).
type Session struct {
	addr       string
	conn       *transport.Client
	clock      simclock.Clock
	id         uint64
	maxEntries int

	mu sync.Mutex
	// ttl is the lease duration of the most recent grant. It starts at the
	// open reply's value and tracks each keepalive reply thereafter, so the
	// serving window follows the server's current setting.
	ttl     time.Duration
	entries map[string]*cacheEntry
	// lru is the sentinel of the circular LRU list: lru.next is the most
	// recently used entry, lru.prev the least.
	lru cacheEntry
	// free heads the free list of zeroed entries, nfree long.
	free  *cacheEntry
	nfree int
	// lastInval[k] is the newest invalidation sequence seen for k;
	// invalFloor is a lower bound applying to every key (set by flush
	// events and by folding lastInval when it outgrows the cache). A
	// GetLease reply with snapshot S installs only if lastInval[k] <= S and
	// invalFloor <= S: anything newer revoked the very value (or a newer
	// one than) the reply carries.
	lastInval  map[string]uint64
	invalFloor uint64
	// processedSeq is the newest acknowledged-event sequence this session
	// has applied. The keepalive loop advances the lease only when it has
	// caught up to the sequence the server reported at keepalive time —
	// a lease extension must never outrun an unprocessed invalidation.
	processedSeq uint64
	// leaseUntil ends the serving window, anchored at keepalive send time.
	leaseUntil time.Time
	dead       bool
	closed     bool

	hits, misses, invals atomic.Uint64

	ackCh chan uint64
	done  chan struct{}
	wg    sync.WaitGroup

	// Test hooks: suspend the keepalive loop (lease-expiry tests) and drop
	// invalidation acks (write-ack-timeout tests).
	noKeepalive atomic.Bool
	dropAcks    atomic.Bool
}

// NewSession opens a session with the store node at addr.
func NewSession(addr string, opts SessionOptions) (*Session, error) {
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	maxEntries := opts.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	s := &Session{
		addr:       addr,
		clock:      clock,
		maxEntries: maxEntries,
		entries:    make(map[string]*cacheEntry),
		lastInval:  make(map[string]uint64),
		ackCh:      make(chan uint64, 4096),
		done:       make(chan struct{}),
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	conn, err := transport.DialOpts(addr, transport.DialOptions{OnEvent: s.onEvent})
	if err != nil {
		return nil, fmt.Errorf("kvstore session: %w", err)
	}
	s.conn = conn
	t0 := clock.Now()
	var rep sessOpenReply
	if err := call(s.conn, "SessOpen", &sessOpenReq{}, &rep); err != nil {
		conn.Close()
		return nil, fmt.Errorf("kvstore session: open: %w", err)
	}
	s.id, s.ttl = rep.ID, rep.TTL
	s.leaseUntil = t0.Add(rep.TTL)
	s.wg.Add(2)
	go s.keepaliveLoop()
	go s.acker()
	return s, nil
}

// Live reports whether the session can still serve (not dead, not closed).
func (s *Session) Live() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead
}

func (s *Session) markDead() {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
}

// onEvent runs on the connection's read loop: it must not block, so acks
// are handed to the acker goroutine through a buffered channel. The topic
// views the read buffer (see transport.Event), so it is copied wherever it
// is kept — and never assigned through as a map key, since assigning to an
// existing string key rebinds the stored key to the assigned string.
func (s *Session) onEvent(ev transport.Event) {
	switch ev.Kind {
	case evInval:
		s.mu.Lock()
		key, cached := s.removeLocked(ev.Topic)
		if ev.Seq > s.lastInval[ev.Topic] {
			// The removed entry's key equals the topic and is owned.
			if !cached {
				key = strings.Clone(ev.Topic)
			}
			s.lastInval[key] = ev.Seq
		}
		s.boundInvalLocked()
		if ev.Seq > s.processedSeq {
			s.processedSeq = ev.Seq
		}
		s.mu.Unlock()
		s.invals.Add(1)
		s.enqueueAck(ev.Seq)
	case evFlush:
		s.mu.Lock()
		for e := s.lru.next; e != &s.lru; {
			next := e.next
			s.freeLocked(e)
			e = next
		}
		clear(s.entries)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		clear(s.lastInval)
		if ev.Seq > s.invalFloor {
			s.invalFloor = ev.Seq
		}
		if ev.Seq > s.processedSeq {
			s.processedSeq = ev.Seq
		}
		s.mu.Unlock()
		s.invals.Add(1)
		s.enqueueAck(ev.Seq)
	}
}

func (s *Session) enqueueAck(seq uint64) {
	if s.dropAcks.Load() {
		return
	}
	select {
	case s.ackCh <- seq:
	default:
		// An ack backlog this deep means the acker is wedged; the server
		// will revoke the session at lease timeout — stop serving now.
		s.markDead()
	}
}

// acker delivers invalidation acknowledgments. Acks are cumulative, so a
// burst coalesces into one call carrying the highest sequence. One request
// and reply serve every ack of the session.
func (s *Session) acker() {
	defer s.wg.Done()
	req := sessAckReq{ID: s.id}
	var rep sessAckReply
	for {
		var seq uint64
		select {
		case seq = <-s.ackCh:
		case <-s.done:
			return
		}
		for drained := false; !drained; {
			select {
			case q := <-s.ackCh:
				if q > seq {
					seq = q
				}
			default:
				drained = true
			}
		}
		req.Seq = seq
		if err := call(s.conn, "SessAck", &req, &rep); err != nil {
			s.markDead()
			return
		}
	}
}

// keepaliveLoop renews the lease at ttl/3. The lease anchor is the
// keepalive's send instant on the client's own clock: the send happens
// before the server's receipt, so the client-side window always ends at or
// before the server-side one no matter how the two clocks are offset. Each
// reply carries the server's current TTL and the client adopts it — the
// server extends by that value, so extending by the open-time TTL after
// SetSessionTTL lowered it would leave the client window ending after the
// server's (and after every invalidation deadline captured from it).
func (s *Session) keepaliveLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		interval := s.ttl / 3
		s.mu.Unlock()
		if interval <= 0 {
			interval = time.Millisecond
		}
		select {
		case <-s.done:
			return
		case <-s.clock.After(interval):
		}
		if s.noKeepalive.Load() {
			continue
		}
		t0 := s.clock.Now()
		s.mu.Lock()
		processed := s.processedSeq
		s.mu.Unlock()
		var rep sessKeepReply
		if err := call(s.conn, "SessKeep", &sessKeepReq{ID: s.id, Processed: processed}, &rep); err != nil {
			s.markDead()
			return
		}
		s.mu.Lock()
		if rep.TTL > 0 {
			s.ttl = rep.TTL
		}
		// Advance only when every event up to the server's sequence at
		// keepalive time has been applied: a keepalive reply that raced
		// past an in-flight invalidation must not extend the serving
		// window of the entry it revokes. A window that SHRANK (the server
		// lowered the TTL) takes effect unconditionally — the server-side
		// lease now ends at receipt+TTL, and serving past the client-side
		// image of that bound would outlive the deadlines invalidations
		// capture from it.
		nu := t0.Add(s.ttl)
		if s.processedSeq >= rep.EventSeq || nu.Before(s.leaseUntil) {
			s.leaseUntil = nu
		}
		s.mu.Unlock()
	}
}

// removeLocked drops key's entry, if any, to the free list and returns
// the entry's own copy of the key.
func (s *Session) removeLocked(key string) (owned string, ok bool) {
	e, ok := s.entries[key]
	if !ok {
		return "", false
	}
	delete(s.entries, key)
	e.unlink()
	owned = e.key
	s.freeLocked(e)
	return owned, true
}

// maxFreeEntries bounds the session's free list of cache entries.
const maxFreeEntries = 64

// freeLocked zeroes an unlinked entry — its value may still be aliased by
// a caller a cache hit returned it to, so the buffer goes to the GC, never
// to reuse — and keeps it for the next install while the list has room.
func (s *Session) freeLocked(e *cacheEntry) {
	*e = cacheEntry{}
	if s.nfree < maxFreeEntries {
		e.next = s.free
		s.free = e
		s.nfree++
	}
}

// newEntryLocked takes a zeroed entry from the free list, or allocates one.
func (s *Session) newEntryLocked() *cacheEntry {
	e := s.free
	if e == nil {
		return new(cacheEntry)
	}
	s.free, e.next = e.next, nil
	s.nfree--
	return e
}

// pushFrontLocked links e in as the most recently used entry.
func (s *Session) pushFrontLocked(e *cacheEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the LRU list.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// boundInvalLocked keeps lastInval from growing without bound (keys churn
// through the cache, their guard entries would not). Folding the map into
// invalFloor only tightens the install guard — never loosens it.
func (s *Session) boundInvalLocked() {
	if len(s.lastInval) <= 4*s.maxEntries {
		return
	}
	floor := s.invalFloor
	for _, q := range s.lastInval {
		if q > floor {
			floor = q
		}
	}
	s.invalFloor = floor
	s.lastInval = make(map[string]uint64)
}

// leaseCalls recycles getLease's request/reply pairs (see pair).
var leaseCalls = sync.Pool{New: func() any { return new(pair[leaseReq, leaseReply]) }}

// getLease runs one GetLease round trip. The reply's value is a view into
// the returned response frame. Unlike CallDecode, which must leave such a
// frame to the GC, getLease hands it to the caller, which releases it once
// the value is copied.
func (s *Session) getLease(key string) (rep leaseReply, frame []byte, err error) {
	lc := leaseCalls.Get().(*pair[leaseReq, leaseReply])
	defer func() {
		*lc = pair[leaseReq, leaseReply]{}
		leaseCalls.Put(lc)
	}()
	lc.req = leaseReq{ID: s.id, Key: key}
	payload := transport.Encode(&lc.req)
	err = unwireError(callShedRetry(time.Sleep, func() (err error) {
		frame, err = s.conn.Call(ServiceName, "GetLease", payload, defaultCallTimeout)
		return err
	}))
	transport.ReleasePayload(payload)
	if err == nil {
		err = transport.Decode(frame, &lc.rep)
	}
	return lc.rep, frame, err
}

// Get returns key's value — from the cache when the lease is live and the
// entry has not been invalidated, otherwise via GetLease (installing the
// result for the next hit). It borrows key (see Shared): the cache keeps a
// copy.
func (s *Session) Get(key string) (Versioned, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return Versioned{}, ErrNoSession
	}
	if s.clock.Now().Before(s.leaseUntil) {
		if e, ok := s.entries[key]; ok {
			e.unlink()
			s.pushFrontLocked(e)
			v := e.val
			s.mu.Unlock()
			s.hits.Add(1)
			return v, nil
		}
	}
	s.mu.Unlock()
	s.misses.Add(1)
	rep, frame, err := s.getLease(key)
	if err != nil {
		return Versioned{}, err
	}
	v := rep.Val
	var (
		evictedKey string
		evictedGen uint64
		evicted    bool
	)
	s.mu.Lock()
	cached := !s.dead && !rep.NoCache &&
		s.invalFloor <= rep.Snapshot && s.lastInval[key] <= rep.Snapshot
	if cached {
		v, evictedKey, evictedGen, evicted = s.installLocked(key, rep.Val, rep.Gen)
	}
	s.mu.Unlock()
	if cached {
		// v is the cache's copy, so the frame goes back to the arena. An
		// uncached value still views it and leaves it to the GC.
		transport.ReleasePayload(frame)
	}
	if evicted {
		// Fire-and-forget: a lost forget leaves a harmless stale interest
		// (the next write pushes one spurious, immediately-acked inval).
		_ = s.conn.OneWay(ServiceName, "SessForget", transport.Encode(&sessForgetReq{ID: s.id, Key: evictedKey, Gen: evictedGen}))
	}
	return v, nil
}

// installLocked inserts (or refreshes) a cache entry under lease grant
// gen, copying the value out of the transport frame and a new key out of
// the caller's borrowed one. It returns the cached copy of the value and,
// when an entry was evicted to make room, that entry's key and lease grant.
func (s *Session) installLocked(key string, v Versioned, gen uint64) (val Versioned, evictedKey string, evictedGen uint64, evicted bool) {
	val = Versioned{Value: append([]byte(nil), v.Value...), Version: v.Version}
	if e, ok := s.entries[key]; ok {
		e.val, e.gen = val, max(e.gen, gen)
		e.unlink()
		s.pushFrontLocked(e)
		return val, "", 0, false
	}
	e := s.newEntryLocked()
	e.key, e.val, e.gen = strings.Clone(key), val, gen
	s.entries[e.key] = e
	s.pushFrontLocked(e)
	if len(s.entries) <= s.maxEntries {
		return val, "", 0, false
	}
	evictedGen = s.lru.prev.gen
	evictedKey, _ = s.removeLocked(s.lru.prev.key)
	return val, evictedKey, evictedGen, true
}

// SessionStats reports a session's cache effectiveness.
type SessionStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
	Live          bool
}

// Stats returns cumulative counters and current state.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	entries, live := len(s.entries), !s.dead
	s.mu.Unlock()
	return SessionStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Invalidations: s.invals.Load(),
		Entries:       entries,
		Live:          live,
	}
}

// Close tears the session down on both sides.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.dead = true
	s.mu.Unlock()
	close(s.done)
	var rep sessCloseReply
	_ = call(s.conn, "SessClose", &sessCloseReq{ID: s.id}, &rep)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// ClusterSession layers per-primary sessions over a Cluster: reads are
// served from lease-backed caches (one session per shard primary, opened
// on demand and re-established automatically after failover), writes and
// everything else take the ordinary routed path — whose primaries
// invalidate the caches before acknowledging. It implements Shared, so it
// drops into core.State wherever a Cluster does.
type ClusterSession struct {
	// Shared is the cluster: every method but Get takes the routed path.
	// The cache layer needs no write-through logic of its own, since a
	// shard primary invalidates every caching session before it acks.
	Shared
	c    *Cluster
	opts SessionOptions

	mu       sync.Mutex
	sessions map[string]*Session // by primary address
	closed   bool
}

// NewSession returns a session-caching view of the cluster. The caller
// should Close it to release its per-node sessions.
func (c *Cluster) NewSession(opts SessionOptions) *ClusterSession {
	if opts.Clock == nil {
		opts.Clock = c.clock
	}
	cs := &ClusterSession{Shared: c, c: c, opts: opts, sessions: make(map[string]*Session)}
	c.registerSession(cs)
	return cs
}

// dialSession is NewSession behind a test seam (dial-stall isolation tests
// substitute a delaying dialer).
var dialSession = NewSession

// sessionForKey returns a live session with key's current primary, opening
// one if needed. Returns nil when no session can be established (caller
// falls back to the uncached path, which drives failover).
func (cs *ClusterSession) sessionForKey(key string) *Session {
	cs.c.mu.RLock()
	var addr string
	if !cs.c.closed && cs.c.ring != nil {
		if idx := cs.c.ring.Owner(key); idx >= 0 {
			addr = cs.c.nodes[idx].addr
		}
	}
	cs.c.mu.RUnlock()
	if addr == "" {
		return nil
	}
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return nil
	}
	if sess := cs.sessions[addr]; sess != nil {
		if sess.Live() {
			cs.mu.Unlock()
			return sess
		}
		delete(cs.sessions, addr)
		go sess.Close()
	}
	cs.mu.Unlock()
	// Dial outside cs.mu: opening a session blocks on a dial plus the
	// SessOpen round trip, and one slow or unresponsive node must not stall
	// cached reads for keys on every other shard. Concurrent misses on the
	// same address may race duplicate dials; the loser is closed below.
	sess, err := dialSession(addr, cs.opts)
	if err != nil {
		return nil
	}
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		go sess.Close()
		return nil
	}
	if cur := cs.sessions[addr]; cur != nil {
		if cur.Live() {
			cs.mu.Unlock()
			go sess.Close()
			return cur
		}
		delete(cs.sessions, addr)
		go cur.Close()
	}
	cs.sessions[addr] = sess
	cs.mu.Unlock()
	return sess
}

// dropSession discards a session (dead node, stale view).
func (cs *ClusterSession) dropSession(sess *Session) {
	cs.mu.Lock()
	if cs.sessions[sess.addr] == sess {
		delete(cs.sessions, sess.addr)
	}
	cs.mu.Unlock()
	go sess.Close()
}

// Get serves key from the primary's session cache, falling back to the
// routed (failover-driving) path when the session layer cannot.
func (cs *ClusterSession) Get(key string) (Versioned, error) {
	for attempt := 0; attempt < 3; attempt++ {
		sess := cs.sessionForKey(key)
		if sess == nil {
			break
		}
		v, err := sess.Get(key)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrNotFound):
			return Versioned{}, ErrNotFound
		case errors.Is(err, ErrNoSession):
			cs.dropSession(sess) // reopen on the next attempt
		case errors.Is(err, ErrWrongOwner):
			// Routing views disagree (membership change in flight); the
			// fallback path resolves it.
		default:
			// Transport-level failure: discard the session and let the
			// routed path probe the node and fail over.
			cs.dropSession(sess)
			return cs.c.Get(key)
		}
	}
	return cs.c.Get(key)
}

// ClusterSessionStats aggregates the per-primary session counters.
type ClusterSessionStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	LiveSessions  int
}

// Stats sums the counters across the per-primary sessions.
func (cs *ClusterSession) Stats() ClusterSessionStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out ClusterSessionStats
	for _, sess := range cs.sessions {
		st := sess.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Invalidations += st.Invalidations
		if st.Live {
			out.LiveSessions++
		}
	}
	return out
}

// Close releases every per-node session.
func (cs *ClusterSession) Close() error {
	cs.c.dropSessionClient(cs)
	cs.mu.Lock()
	sessions := cs.sessions
	cs.sessions = make(map[string]*Session)
	cs.closed = true
	cs.mu.Unlock()
	var err error
	for _, sess := range sessions {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

var _ Shared = (*ClusterSession)(nil)
