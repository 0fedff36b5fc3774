package kvstore

import (
	"errors"
	"slices"
	"sync"
	"time"

	"elasticrmi/internal/simclock"
)

// This file is the server half of the session layer: Chubby-style
// keepalive-backed sessions whose cached reads the store invalidates
// *before* acknowledging any conflicting write. The client half lives in
// sessclient.go; the coherence contract is documented on the package
// (store.go, "Sessions and caching").

// ErrNoSession is returned for session operations against a session the
// server does not know — never opened, expired, or killed. Clients react by
// reopening the session (with an empty cache).
var ErrNoSession = errors.New("kvstore: unknown or expired session")

// ErrWrongOwner is returned by GetLease when the addressed node is not the
// primary of the key's shard under its installed view — only primaries
// grant leases, because only the primary of a key sees (and therefore can
// invalidate before) every write to it. Clients re-route and retry.
var ErrWrongOwner = errors.New("kvstore: not the primary for this key")

// DefaultSessionTTL is the lease a session holds after each keepalive (and
// after open). Clients anchor the lease at keepalive *send* time, so the
// client-side lease always ends at or before the server-side one,
// regardless of clock offset between the two.
const DefaultSessionTTL = 2 * time.Second

// defaultMaxInterest caps how many keys one session may hold under lease.
// Past the cap GetLease still serves reads but stops granting cache
// permission (NoCache), so a client with an oversized cache cannot make the
// server track unbounded interest state.
const defaultMaxInterest = 65536

// Event kinds pushed on session connections (transport.Event.Kind).
const (
	// evInval invalidates one cached key (Topic). The client must drop the
	// entry and acknowledge with SessAck; the conflicting write's reply is
	// withheld until every affected session acks or its lease expires.
	evInval = 1
	// evFlush invalidates the whole cache (view change, lock migration).
	// Acknowledged like evInval.
	evFlush = 2
)

// Session-protocol wire messages (hot path: every cache miss is a GetLease,
// every invalidation round trips a SessAck).
//
//ermi:codec
type (
	sessOpenReq   struct{}
	sessOpenReply struct {
		ID  uint64
		TTL time.Duration
	}
	sessKeepReq struct {
		ID uint64
		// Processed is the newest event sequence the client has applied to
		// its cache. It doubles as a cumulative acknowledgment: a lost or
		// delayed SessAck frame is repaired by the next keepalive, so a
		// writer never waits longer than a keepalive interval on a client
		// whose ack path (not its event path) is slow.
		Processed uint64
	}
	sessKeepReply struct {
		// EventSeq is the session's last issued invalidation sequence at the
		// time of the keepalive. The client may extend its lease from this
		// reply only once it has processed every event up to EventSeq —
		// otherwise a keepalive racing an unprocessed invalidation could
		// extend the serving window of an entry the server believes revoked.
		EventSeq uint64
		// TTL is the lease duration this keepalive granted — the server's
		// current setting, not the one the session opened with. The client
		// adopts it: the server extends by its *current* TTL, so a client
		// still extending by the open-time value after SetSessionTTL lowered
		// it would hold a window ending after the server's, and every
		// invalidation deadline captured from that server window would pass
		// while the client kept serving.
		TTL time.Duration
	}
	sessCloseReq   struct{ ID uint64 }
	sessCloseReply struct{}
	leaseReq       struct {
		ID  uint64
		Key string
	}
	leaseReply struct {
		Val Versioned
		// Snapshot is the session's invalidation sequence captured when the
		// key's interest was registered — before the value was read. The
		// client installs the entry only if it has seen no invalidation
		// newer than Snapshot for this key: any write applied after this
		// read carries a sequence > Snapshot, and any event <= Snapshot was
		// for a write the read already reflects.
		Snapshot uint64
		// NoCache means the value may be served but not cached: the
		// session's interest table is full.
		NoCache bool
		// Gen identifies this grant of the key's interest. The client
		// sends it back when it evicts the entry, so the forget cannot
		// drop a later grant it raced with.
		Gen uint64
	}
	sessAckReq struct {
		ID uint64
		// Seq acknowledges every outstanding invalidation with sequence <=
		// Seq (cumulative, so a client can coalesce a burst into one ack).
		Seq uint64
	}
	sessAckReply  struct{}
	sessForgetReq struct {
		ID  uint64
		Key string
		Gen uint64 // the evicted entry's lease grant (leaseReply.Gen)
	}
	sessForgetReply struct{}
)

// eventPusher is the slice of transport.Pusher the session layer uses —
// an interface so ordering tests can put a recorder on the wire.
type eventPusher interface {
	Send(kind, seq uint64, topic string, payload []byte) error
	Closed() bool
}

// outEvent is one queued server-push event awaiting transmission by its
// session's sender goroutine.
type outEvent struct {
	kind  uint64
	seq   uint64
	topic string
}

// serverSession is one client session. All fields are guarded by the
// owning sessionMgr's mutex except pusher and dead, which are safe to use
// outside it (the pusher is internally synchronized; dead is only closed
// once, under the mutex, via killLocked, and retires the sender).
type serverSession struct {
	id      uint64
	pusher  eventPusher
	expires time.Time
	// seq numbers this session's acknowledged events (evInval/evFlush). It
	// increments under the manager mutex, so the sequence a GetLease
	// snapshot observes and the sequence an invalidation issues are totally
	// ordered.
	seq uint64
	// interest maps each key the session may cache to its latest lease
	// grant, numbered by grants (one per GetLease).
	interest map[string]uint64
	grants   uint64
	// acks holds the session's issued, unacknowledged invalidations in
	// sequence order (sequences are assigned under the mutex, so appending
	// keeps the order and a cumulative ack settles a prefix).
	acks []pendingAck
	dead chan struct{}
	// outbox holds queued events in seq-assignment order; sendSig (capacity
	// 1) wakes the session's sender goroutine. Events are appended under
	// the manager mutex and drained by that single goroutine, so they reach
	// the wire in exactly seq order. Pushing from the issuing goroutine
	// after releasing the mutex — the obvious alternative — reorders: two
	// concurrent writes could put their events on the wire newest-first,
	// and because acks are cumulative, the ack for the newer sequence would
	// release the older write's waiter while the client still holds the
	// stale entry that write was supposed to revoke.
	outbox  []outEvent
	sendSig chan struct{}
}

// sessionMgr tracks every live session of one Server: who caches which key,
// and the write fence. One invalidation may be outstanding per key per
// session — interest is dropped at issue time, so a later write to the same
// key finds no interest and pushes nothing until the client re-leases the
// key.
type sessionMgr struct {
	clock simclock.Clock

	mu          sync.Mutex
	ttl         time.Duration
	maxInterest int
	nextID      uint64
	sessions    map[uint64]*serverSession
	// byKey indexes sessions by the keys they cache, as unordered slices
	// with swap-remove. A key is typically cached by few sessions (one per
	// client that reads it), where a slice costs one allocation per lease
	// round and a set two. A session appears at most once per slice.
	byKey map[string][]*serverSession
	// spareSets recycles the index slices of keys whose last session left
	// (an invalidation, a forget), so the lease that re-registers a key
	// reuses one instead of allocating it.
	spareSets [][]*serverSession
	// fence is the instant before which no write may be acknowledged (see
	// Server.FenceWrites). Zero when no fence is active.
	fence time.Time
	// orphans are pending invalidations of sessions killed while their
	// clients may still be serving (see killLocked); the sweeper settles
	// each at its deadline.
	orphans []pendingAck

	// The deadline sweeper (see sweeper) runs while any invalidation is
	// pending: sweeping says it is running, armed is the deadline it sleeps
	// toward, and wake (capacity 1) cuts that sleep short. closeAll waits
	// on sweepers for its exit.
	sweeping bool
	armed    time.Time
	wake     chan struct{}
	sweepers sync.WaitGroup
}

func newSessionMgr(clock simclock.Clock) *sessionMgr {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &sessionMgr{
		clock:       clock,
		ttl:         DefaultSessionTTL,
		maxInterest: defaultMaxInterest,
		sessions:    make(map[uint64]*serverSession),
		byKey:       make(map[string][]*serverSession),
		wake:        make(chan struct{}, 1),
	}
}

// setTTL changes the lease granted to future keepalives (test/deployment
// tuning; existing sessions adopt the new duration — shrinking their
// serving window if it shortened — on their next keepalive, whose reply
// carries it).
func (m *sessionMgr) setTTL(d time.Duration) {
	m.mu.Lock()
	m.ttl = d
	m.mu.Unlock()
}

// open creates a session bound to the connection behind p and starts its
// sender goroutine (retired when the session dies).
func (m *sessionMgr) open(p eventPusher) (id uint64, ttl time.Duration) {
	m.mu.Lock()
	m.nextID++
	sess := &serverSession{
		id:       m.nextID,
		pusher:   p,
		expires:  m.clock.Now().Add(m.ttl),
		interest: make(map[string]uint64),
		dead:     make(chan struct{}),
		sendSig:  make(chan struct{}, 1),
	}
	m.sessions[sess.id] = sess
	ttl = m.ttl
	m.mu.Unlock()
	go m.sender(sess)
	return sess.id, ttl
}

// queueEventLocked appends one event to the session's outbox and wakes its
// sender. Callers hold m.mu, so outbox order is exactly the order sequences
// were assigned — the invariant the cumulative-ack protocol stands on.
func (m *sessionMgr) queueEventLocked(sess *serverSession, kind, seq uint64, topic string) {
	sess.outbox = append(sess.outbox, outEvent{kind: kind, seq: seq, topic: topic})
	select {
	case sess.sendSig <- struct{}{}:
	default: // a wake-up is already pending; the sender re-drains
	}
}

// sender is the session's single transmission goroutine: it drains the
// outbox in FIFO order so events hit the wire in seq order, and kills the
// session on the first failed push (the connection is gone; writers
// waiting on its acks are released through dead). The drained batch's
// array becomes the next outbox, so a steady event stream reuses two
// arrays instead of growing a fresh one per batch.
func (m *sessionMgr) sender(sess *serverSession) {
	var spare []outEvent
	for {
		select {
		case <-sess.sendSig:
		case <-sess.dead:
			return
		}
		for {
			// spare and the outbox never share an array: spare is handed
			// over only on the next pass, after this batch is sent.
			m.mu.Lock()
			evs := sess.outbox
			sess.outbox = spare
			m.mu.Unlock()
			spare = evs[:0]
			if len(evs) == 0 {
				break
			}
			for _, ev := range evs {
				if err := sess.pusher.Send(ev.kind, ev.seq, ev.topic, nil); err != nil {
					m.kill(sess)
					return
				}
			}
			clear(evs) // drop the topics
		}
	}
}

// liveLocked returns the session if it exists and its lease has not
// expired; an expired or connection-dead session is reaped on sight.
func (m *sessionMgr) liveLocked(id uint64) *serverSession {
	sess := m.sessions[id]
	if sess == nil {
		return nil
	}
	if !sess.expires.After(m.clock.Now()) || sess.pusher.Closed() {
		m.killLocked(sess, false)
		return nil
	}
	return sess
}

// keepalive extends the session's lease and reports its event sequence for
// the client's lease-advance gate, plus the granted TTL so the client's
// window tracks the server's current setting. processed is the client's
// applied-event watermark and acknowledges cumulatively, exactly like ack.
func (m *sessionMgr) keepalive(id, processed uint64) (eventSeq uint64, ttl time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sess := m.liveLocked(id)
	if sess == nil {
		return 0, 0, ErrNoSession
	}
	sess.expires = m.clock.Now().Add(m.ttl)
	m.ackLocked(sess, processed)
	return sess.seq, m.ttl, nil
}

// close tears the session down at its client's request: interest dropped,
// writers waiting on its acks released (the client stopped serving its
// cache before it asked).
func (m *sessionMgr) close(id uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil {
		m.killLocked(sess, true)
	}
	m.mu.Unlock()
}

// killLocked removes the session. Its pending invalidations settle at once
// when its client provably serves nothing any more — ended (the client
// closed the session, or the server shut down), or the lease lapsed.
// Otherwise they wait out their deadlines as orphans: a broken connection
// says nothing about the client, which keeps serving its cache until its
// own lease runs out, so releasing a writer on it would let the write's
// ack overtake a cached copy still being served.
func (m *sessionMgr) killLocked(sess *serverSession, ended bool) {
	if _, live := m.sessions[sess.id]; !live {
		return
	}
	delete(m.sessions, sess.id)
	if ended || !sess.expires.After(m.clock.Now()) {
		for _, p := range sess.acks {
			p.w.settle()
		}
	} else {
		m.orphans = append(m.orphans, sess.acks...)
	}
	sess.acks = nil
	for k := range sess.interest {
		m.dropIndexLocked(k, sess)
	}
	close(sess.dead)
}

func (m *sessionMgr) kill(sess *serverSession) {
	m.mu.Lock()
	m.killLocked(sess, false)
	m.mu.Unlock()
}

// addIndexLocked records sess under key in byKey; the caller ensures it is
// not there yet (the session's own interest set says so).
func (m *sessionMgr) addIndexLocked(key string, sess *serverSession) {
	set := m.byKey[key]
	if set == nil {
		if n := len(m.spareSets); n > 0 {
			set, m.spareSets = m.spareSets[n-1], m.spareSets[:n-1]
		} else {
			set = make([]*serverSession, 0, 4)
		}
	}
	m.byKey[key] = append(set, sess)
}

// Bounds of the spare index slices: how many are kept, and the largest
// capacity kept (a hot key's slice must not be pinned once it cools).
const (
	maxSpareSets   = 1024
	maxSpareSetCap = 16
)

// spareSetLocked keeps an index slice whose key left its index for reuse.
func (m *sessionMgr) spareSetLocked(set []*serverSession) {
	if len(m.spareSets) < maxSpareSets && cap(set) <= maxSpareSetCap {
		clear(set)
		m.spareSets = append(m.spareSets, set[:0])
	}
}

func (m *sessionMgr) dropIndexLocked(key string, sess *serverSession) {
	set := m.byKey[key]
	i := slices.Index(set, sess)
	if i < 0 {
		return
	}
	last := len(set) - 1
	set[i], set[last] = set[last], nil
	if last == 0 {
		delete(m.byKey, key)
		m.spareSetLocked(set)
		return
	}
	m.byKey[key] = set[:last]
}

// lease registers the session's interest in key and returns the event-
// sequence snapshot the client's install guard needs, plus the grant that
// a later forget must name. It MUST be called before the store read it
// covers: registration and invalidation issue are ordered by the manager
// mutex, so a write applied after the read is guaranteed to find the
// interest (sequence > snapshot), and any event with sequence <= snapshot
// belongs to a write the read already observed.
func (m *sessionMgr) lease(id uint64, key string) (snapshot, gen uint64, noCache bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sess := m.liveLocked(id)
	if sess == nil {
		return 0, 0, false, ErrNoSession
	}
	if _, have := sess.interest[key]; !have {
		if len(sess.interest) >= m.maxInterest {
			return sess.seq, 0, true, nil
		}
		m.addIndexLocked(key, sess)
	}
	sess.grants++
	sess.interest[key] = sess.grants
	return sess.seq, sess.grants, false, nil
}

// forget drops the session's interest in key (client-side eviction) if gen
// is still its latest grant. A forget is a one-way express call, so it can
// reach the server after a GetLease the client sent later for the same
// key; dropping that newer grant would leave the re-cached entry with
// nobody to invalidate it. The client keeps its install guard, so a forget
// racing an in-flight invalidation is harmless on both sides.
func (m *sessionMgr) forget(id uint64, key string, gen uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil && sess.interest[key] == gen {
		delete(sess.interest, key)
		m.dropIndexLocked(key, sess)
	}
	m.mu.Unlock()
}

// ack acknowledges every outstanding invalidation of the session with
// sequence <= upTo.
func (m *sessionMgr) ack(id, upTo uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil {
		m.ackLocked(sess, upTo)
	}
	m.mu.Unlock()
}

// ackLocked settles the session's pending invalidations with sequence <=
// upTo — a prefix of acks — keeping the slice's array for the next ones.
func (m *sessionMgr) ackLocked(sess *serverSession, upTo uint64) {
	n := 0
	for n < len(sess.acks) && sess.acks[n].seq <= upTo {
		sess.acks[n].w.settle()
		n++
	}
	if n > 0 {
		left := copy(sess.acks, sess.acks[n:])
		clear(sess.acks[left:])
		sess.acks = sess.acks[:left]
	}
}

// ackWaiter is one writer's wait on its invalidation round: pending counts
// the round's unsettled invalidations, and done receives once when the
// last one settles — by its ack, by its session's death, or by the
// sweeper past its deadline. pending is guarded by the manager mutex.
// Waiters are pooled: a round allocates no channel and no timer.
type ackWaiter struct {
	pending int
	done    chan struct{}
}

var ackWaiters = sync.Pool{New: func() any { return &ackWaiter{done: make(chan struct{}, 1)} }}

// settle counts down one invalidation of the round. The caller holds the
// manager mutex and has already removed the invalidation from its
// session, so nothing references w once done is sent. The send never
// blocks: done has room for the one send a round makes, and the writer
// drains it before w goes back to the pool.
func (w *ackWaiter) settle() {
	w.pending--
	if w.pending == 0 {
		select {
		case w.done <- struct{}{}:
		default:
		}
	}
}

// pendingAck is one issued invalidation awaiting its client ack.
type pendingAck struct {
	seq uint64
	// deadline is the session's lease end captured at issue time. Later
	// keepalives never extend the wait: the client's own lease anchor is at
	// or before the server's, so once deadline passes the client has
	// provably stopped serving the revoked entry.
	deadline time.Time
	w        *ackWaiter
}

// issueLocked assigns the session's next sequence to an acknowledged event
// (evInval or evFlush) whose settlement w waits on, queues the event, and
// makes sure the sweeper will settle it by its deadline.
func (m *sessionMgr) issueLocked(sess *serverSession, w *ackWaiter, kind uint64, topic string) {
	sess.seq++
	w.pending++
	sess.acks = append(sess.acks, pendingAck{seq: sess.seq, deadline: sess.expires, w: w})
	m.armLocked(sess.expires)
	m.queueEventLocked(sess, kind, sess.seq, topic)
}

// invalidate revokes key from every session caching it and blocks until
// each has acknowledged or provably expired — the write that triggered it
// must not be acknowledged before cached copies are gone. Interest is
// dropped at issue, so at most one invalidation per key per session is ever
// outstanding.
func (m *sessionMgr) invalidate(key string) {
	var w *ackWaiter
	m.mu.Lock()
	if set := m.byKey[key]; len(set) > 0 {
		now := m.clock.Now()
		for _, sess := range set {
			delete(sess.interest, key)
			if !sess.expires.After(now) {
				m.killLocked(sess, false) // lapsed: it serves nothing
				continue
			}
			if w == nil {
				w = ackWaiters.Get().(*ackWaiter)
			}
			m.issueLocked(sess, w, evInval, key)
			if sess.pusher.Closed() {
				// Nobody will deliver the event: the round waits out the
				// lease instead (see killLocked).
				m.killLocked(sess, false)
			}
		}
		delete(m.byKey, key)
		m.spareSetLocked(set)
	}
	m.mu.Unlock()
	await(w)
}

// flushAll revokes every cached entry of every session and waits for the
// acks — the coherence hammer membership changes swing: after a view
// change, lock migration, or rebalance, no pre-change cache entry survives.
func (m *sessionMgr) flushAll() {
	var w *ackWaiter
	m.mu.Lock()
	now := m.clock.Now()
	for _, sess := range m.sessions {
		if !sess.expires.After(now) {
			m.killLocked(sess, false)
			continue
		}
		for k := range sess.interest {
			m.dropIndexLocked(k, sess)
		}
		sess.interest = make(map[string]uint64)
		if w == nil {
			w = ackWaiters.Get().(*ackWaiter)
		}
		m.issueLocked(sess, w, evFlush, "")
		if sess.pusher.Closed() {
			m.killLocked(sess, false)
		}
	}
	m.mu.Unlock()
	await(w)
}

// await blocks until every invalidation of w's round has settled, then
// returns w to its pool. A nil w (a round that issued nothing) returns at
// once.
func await(w *ackWaiter) {
	if w == nil {
		return
	}
	<-w.done
	ackWaiters.Put(w)
}

// armLocked makes sure the sweeper wakes by deadline: it starts the
// sweeper when none is running, and cuts its sleep short when deadline is
// earlier than the one it sleeps toward. A deadline at or after the armed
// one costs nothing, and keepalives move deadlines forward, so a steady
// stream of writes arms no timer of its own.
func (m *sessionMgr) armLocked(deadline time.Time) {
	switch {
	case !m.sweeping:
		m.sweeping = true
		m.armed = deadline
		m.sweepers.Add(1)
		go m.sweeper()
	case deadline.Before(m.armed):
		m.armed = deadline
		m.wakeSweeper()
	}
}

func (m *sessionMgr) wakeSweeper() {
	select {
	case m.wake <- struct{}{}:
	default: // a wake-up is already pending; the sweeper rescans
	}
}

// sweeper settles overdue invalidations for the whole manager: it sleeps
// until the earliest pending deadline (on the manager's clock, so it runs
// under simulated time too), settles every invalidation past its deadline,
// re-arms for the earliest one left, and exits once none is pending.
func (m *sessionMgr) sweeper() {
	defer m.sweepers.Done()
	for {
		m.mu.Lock()
		next, ok := m.sweepLocked(m.clock.Now())
		if !ok {
			m.sweeping = false
			m.mu.Unlock()
			return
		}
		m.armed = next
		m.mu.Unlock()
		select {
		case <-m.clock.After(max(next.Sub(m.clock.Now()), 0)):
		case <-m.wake:
		}
	}
}

// sweepLocked settles every pending invalidation whose deadline has passed
// at now, orphans included, and returns the earliest deadline still
// pending (ok is false when none is).
//
// Past its deadline an invalidation's entry is provably no longer served:
// the client either never processed the event (then its own lease, anchored
// at or before ours, has ended) or processed it (the keepalive gate admits
// no other renewal). The session is killed ONLY if its lease really lapsed:
// a renewal since issue passes the client's EventSeq gate only after this
// event was applied, so the entry is already dropped and merely the ack is
// slow or lost — killing such a session would silently drop its other
// interests while the client, holding a valid lease, keeps serving them
// with nobody left to invalidate (a coherence hole, not a cleanup).
func (m *sessionMgr) sweepLocked(now time.Time) (next time.Time, ok bool) {
	for _, sess := range m.sessions {
		for i := 0; i < len(sess.acks); {
			p := sess.acks[i]
			if p.deadline.After(now) {
				if !ok || p.deadline.Before(next) {
					next, ok = p.deadline, true
				}
				i++
				continue
			}
			if !sess.expires.After(now) {
				m.killLocked(sess, false) // lapsed: settles the rest of its acks
				break
			}
			sess.acks = slices.Delete(sess.acks, i, i+1)
			p.w.settle()
		}
	}
	left := m.orphans[:0]
	for _, p := range m.orphans {
		if !p.deadline.After(now) {
			p.w.settle()
			continue
		}
		if !ok || p.deadline.Before(next) {
			next, ok = p.deadline, true
		}
		left = append(left, p)
	}
	clear(m.orphans[len(left):])
	m.orphans = left
	return next, ok
}

// fenceWrites forbids write acknowledgments before until (monotone: an
// earlier fence never shortens a later one).
func (m *sessionMgr) fenceWrites(until time.Time) {
	m.mu.Lock()
	if until.After(m.fence) {
		m.fence = until
	}
	m.mu.Unlock()
}

// barrier delays the calling write handler until any active fence has
// passed. The write is already applied (and replicated) when the barrier
// runs — only its acknowledgment waits, so a reader can observe the new
// value early but no writer can claim success while a dead primary's
// leases might still be serving the old one.
func (m *sessionMgr) barrier() {
	m.mu.Lock()
	until := m.fence
	m.mu.Unlock()
	if d := until.Sub(m.clock.Now()); d > 0 {
		m.clock.Sleep(d)
	}
}

// closeAll kills every session (server shutdown: the transport is down, so
// no write ack can escape any more), releasing every writer still waiting
// on an acknowledgment, and waits for the sweeper, woken to find nothing
// pending, to exit.
func (m *sessionMgr) closeAll() {
	m.mu.Lock()
	for _, sess := range m.sessions {
		m.killLocked(sess, true)
	}
	for _, p := range m.orphans {
		p.w.settle()
	}
	m.orphans = nil
	if m.sweeping {
		m.wakeSweeper()
	}
	m.mu.Unlock()
	m.sweepers.Wait()
}

// Test hooks (in-package tests only).

// sessionCount reports the number of live sessions.
func (m *sessionMgr) sessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// interestCount reports how many sessions hold a lease on key.
func (m *sessionMgr) interestCount(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byKey[key])
}
