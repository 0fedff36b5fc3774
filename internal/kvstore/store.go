// Package kvstore implements the strongly consistent in-memory key-value
// store that ElasticRMI uses for the shared state of elastic object pools
// (the role HyperDex plays in the paper, §2.2/§4.1).
//
// The package provides the storage engine (Store), a network server exposing
// it over the transport protocol (Server), a client (Client), and a sharded,
// replicated multi-node deployment with online node addition and removal
// (Cluster) — the paper's runtime "may add additional nodes to HyperDex as
// necessary" (§4.2), and HyperDex itself replicates for fault tolerance.
//
// Consistency model: every key (and every lock name) has a replica set of R
// nodes — the first R distinct successors of its hash on the routing ring
// (internal/route.Ring.Owners), where R is the cluster's replication
// factor. The first replica is the key's primary: all client operations are
// routed to it, it serializes operations per key, and it synchronously
// forwards the resulting state (value+version, or lock lease) to the
// backups before acknowledging, so reads observe the latest completed write
// and every acknowledged write exists on every reachable replica. Named
// locks with leases implement the per-class mutual exclusion that the
// preprocessor emits for synchronized methods (Fig. 6); lock state is
// replicated and migrated exactly like data, so a lease held across a
// failover, an AddNode or a RemoveNode is still held by the same owner
// afterwards — a second acquirer keeps getting ErrLockHeld until the lease
// expires or the owner unlocks.
//
// State moves in one format, the state record (record.go): a key's value,
// version and tombstone flag, or a lock's owner, absolute expiry and
// sequence, plus hard removals for rebalance cleanup. A write's record is
// what the primary logs and forwards; a migration is a stream of them; a
// snapshot image is one; and every receiver applies them through one path
// with the same version and sequence gates.
//
// Departures come in two flavors. Planned (Cluster.RemoveNode): the
// departing node's shards are handed off — its records, versions and
// unexpired lock leases intact — before the node leaves the ring, so
// nothing is lost even at R=1. Unplanned (crash): the router classifies the
// failed operation, drops the dead node from the ring, promotes the next
// replica of each affected key to primary, and re-replicates survivors'
// state to restore R; with R>=2 no acknowledged write and no held lock is
// lost, and operations retry transparently (bounded, surfacing
// ErrUnavailable only when every replica of a key is gone).
//
// # Sessions and client caching
//
// A client may open a Session (or a ClusterSession spanning all shards):
// reads then install lease-stamped entries in a bounded local cache, and
// repeated reads of an unchanged key cost no round trip. Coherence is
// server-pushed, Chubby-style: before acknowledging any conflicting write
// (Put/Delete/CAS/AddInt64), the key's primary pushes an invalidation
// event to every session holding that key and waits for the acks — so by
// the time a writer's ack returns, no live cache anywhere still holds the
// old value. A session that does not ack within its lease is killed
// instead of waited on forever, which bounds write latency at one session
// TTL in the worst case.
//
// The wait allocates nothing per write. The writer holds one pooled waiter
// that counts its round's invalidations down as each settles: by the
// session's ack (cumulative, so one ack or keepalive settles a prefix of
// the session's pending list), by the session's death, or past its
// deadline — the session's lease end captured at issue. Deadlines belong to
// one sweeper per server rather than to a timer per write: it sleeps on the
// server's clock (simulated time drives it too) until the earliest pending
// deadline, is woken early only by an earlier one, and exits when nothing
// is pending. Past a deadline it kills the session only if its lease really
// lapsed; a session renewed since the issue has provably applied the event
// (the EventSeq gate below), so only its ack is late and the writer is just
// released. A session whose connection breaks is killed at once, but its
// pending invalidations still wait out their deadlines: a broken connection
// does not stop the client from serving its cache until its own lease
// ends. Only a session the client closed itself, or a server shutting down
// (its transport already closed, so no ack can escape), releases writers
// early.
//
// The lease is session-wide and renewed by keepalives. The client anchors
// each lease extension at the time it SENT the keepalive on its own clock,
// which is necessarily earlier than the server's receipt anchor — so the
// client always expires its cache before the server believes the session
// could still be serving it, and clock skew can only shorten the effective
// lease, never stretch it. A keepalive advances the lease only if the
// client has already processed every invalidation the server had issued at
// reply time (the EventSeq gate), closing the race where a renewal
// overtakes an in-flight invalidation. Each keepalive reply also carries
// the server's current session TTL and the client adopts it: a shrunken
// window takes effect immediately (unconditionally pulling the lease in),
// so lowering the TTL mid-flight (SetSessionTTL) never leaves a client
// whose lease outruns the server's. Install is snapshot-guarded: the
// server registers interest and snapshots its event sequence before the
// read, and the client installs the entry only if no invalidation at or
// below that snapshot touched the key — a write that raced the read can
// never leave a stale entry behind. Evicting an entry tells the server to
// forget the key's interest, naming the lease grant it evicted: the forget
// travels one-way on the express lane, so it can arrive after a later
// GetLease of the same key, and the newer grant must survive it.
//
// Failures: when a node crashes, the leases it granted cannot be revoked,
// so the cluster fences — survivors delay conflicting write acks until one
// full session TTL has passed since the failure, by which point every
// orphaned cache entry has expired on its own clock. View changes
// (AddNode/RemoveNode/failover promotion) flush all session caches, since
// key ownership may have moved. One documented hole remains: a
// whole-cluster halt and disk restart (Halt + NewDurable) within a single
// TTL restores no fence, so a client of the previous generation could in
// principle serve one cached read against a write acked by the rebooted
// cluster; restart paths that care should wait one TTL before accepting
// writes.
//
// # Durability contract
//
// A store created with NewStoreDur additionally writes every mutation to a
// write-ahead log (internal/wal) before it is acknowledged: when a mutating
// method returns, the mutation's log record is fsynced — so an ack a
// client observes implies the write survives a power cut of the whole
// node. With DurOptions.GroupCommit the fsync is amortized: concurrently
// admitted mutations share one fsync (the group-commit window is exactly
// the set of records buffered while the previous fsync was in flight), so
// each still returns only after ITS record is durable, but a batch of N
// concurrent writers pays ~1 fsync rather than N.
//
// A backup logs the record stream it applies the same way, as received.
//
// Every DurOptions.SnapshotEvery mutations the store writes a compacted
// snapshot — its whole state as a record stream, captured at a recorded
// log position and atomically renamed into place — and drops the log
// segments the snapshot covers. Snapshotting never blocks the write path:
// the image is read in chunks (see appendExport), and mutations admitted
// while the image is being read are harmless to recovery because replay is
// version/sequence gated — re-applying a logged mutation an image already
// contains converges to the same state. Snapshot compaction is also where
// tombstone GC runs (see defaultTombTTL).
//
// Recovery (NewStoreDur on a non-empty directory) loads the newest intact
// snapshot, replays the log tail past it, and only then exposes the store:
// every acked write and every unexpired lock lease is restored with its
// original version/owner/expiry; released or expired leases come back only
// as invisible tombstones; a torn or corrupt log tail is truncated at the
// last intact record (those records were never acked — Commit had not
// returned); a snapshot image in the layout that preceded the record
// stream is refused with an error rather than misread. Recovery is per
// node and composes with replication: a cluster restart
// (Cluster.NewDurable over existing node directories) first recovers each
// node from its own disk, then runs the normal rebalance merge, so per-key
// max-version / per-lock max-seq wins across replicas exactly as it does
// after a failover.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elasticrmi/internal/simclock"
	"elasticrmi/internal/wal"
)

// Exported errors.
var (
	// ErrNotFound is returned by Get for a missing key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrCASMismatch is returned by CompareAndSwap on version conflict.
	ErrCASMismatch = errors.New("kvstore: compare-and-swap version mismatch")
	// ErrLockHeld is returned by TryLock when another owner holds the lock.
	ErrLockHeld = errors.New("kvstore: lock held")
	// ErrNotLockOwner is returned by Unlock when the caller does not hold it.
	ErrNotLockOwner = errors.New("kvstore: not lock owner")
	// ErrTooLarge is returned by a write whose record would not fit one
	// log record (wal.MaxRecord); the store is left unchanged.
	ErrTooLarge = errors.New("kvstore: write too large")
)

// Versioned is a value with its version. Versions are monotonic across a
// key's whole history, deletions included (a re-created key continues
// above its tombstone).
//
// The //ermi:codec mark gives it a generated binary codec (nested in the
// hot wire messages); Value decodes as a zero-copy view into the frame.
//
//ermi:codec
type Versioned struct {
	Value   []byte
	Version uint64
}

// entry is one key's state. A deleted entry is a tombstone: readers see
// the key as missing, but its version keeps replicated and migrated states
// ordered — a stale live copy on a node that missed the delete can never
// outrank the deletion in a rebalance merge and resurrect the key.
type entry struct {
	value   []byte // never written in place: every write installs a fresh slice
	version uint64
	deleted bool
	tombAt  time.Time // when the tombstone was installed here (GC horizon)
}

// lockState is one named lock: the holder, the absolute lease expiry, and
// a store-local monotonic mutation sequence. The sequence orders
// replicated lock updates (a backup installs an update only if it is newer
// than what it already holds), so a delayed re-delivery can never
// resurrect a released or superseded lease.
type lockState struct {
	owner   string // "" = released tombstone (kept for its seq)
	expires time.Time
	seq     uint64
	stamp   time.Time // when this state was installed here (GC horizon)
}

// defaultTombTTL is the default tombstone retention horizon. It must
// comfortably exceed the maximum replication/migration staleness — the
// longest a stale copy of a key or lock can survive on any node before a
// rebalance merge or repair reconciles it (seconds in practice: forwards
// are synchronous and rebalance runs inline with membership changes).
// After the horizon a tombstone has done its ordering work and only costs
// memory.
const defaultTombTTL = 5 * time.Minute

// gcEvery is how many mutations pass between amortized inline GC sweeps.
const gcEvery = 1024

// Store is the single-node storage engine. Safe for concurrent use.
type Store struct {
	clock simclock.Clock

	mu      sync.Mutex
	data    map[string]entry
	locks   map[string]lockState
	lockSeq uint64 // monotonic across all lock mutations on this store

	tombTTL  time.Duration
	opsSince int         // mutations since the last inline GC sweep
	dur      *durability // nil for a purely in-memory store
}

// NewStore creates an empty in-memory store; clock may be nil for the wall
// clock. See NewStoreDur for a durable one.
func NewStore(clock simclock.Clock) *Store {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Store{
		clock:   clock,
		data:    make(map[string]entry),
		locks:   make(map[string]lockState),
		tombTTL: defaultTombTTL,
	}
}

// CompactTombstones runs a full tombstone GC sweep immediately.
func (s *Store) CompactTombstones() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(s.clock.Now())
}

// gcLocked prunes tombstones past the retention horizon: deletion
// tombstones installed more than tombTTL ago, lock release-tombstones
// likewise, and held leases whose lease expired more than tombTTL ago
// (their sequence can no longer be outrun by any in-flight replica
// traffic). Fixes the unbounded-growth bug where a sustained put/delete
// or lock-churn workload grew the maps forever.
func (s *Store) gcLocked(now time.Time) {
	for k, e := range s.data {
		if e.deleted && !e.tombAt.IsZero() && now.Sub(e.tombAt) > s.tombTTL {
			delete(s.data, k)
		}
	}
	for name, st := range s.locks {
		switch {
		case st.owner == "" && !st.stamp.IsZero() && now.Sub(st.stamp) > s.tombTTL:
			delete(s.locks, name)
		case st.owner != "" && !st.expires.After(now) && now.Sub(st.expires) > s.tombTTL:
			delete(s.locks, name)
		}
	}
	s.opsSince = 0
}

// maybeGCLocked amortizes gcLocked over mutations so the sweep cost stays
// O(1) per operation.
func (s *Store) maybeGCLocked() {
	s.opsSince++
	if s.opsSince >= gcEvery {
		s.gcLocked(s.clock.Now())
	}
}

// Get returns the value and version stored at key; the value is the
// caller's own copy.
func (s *Store) Get(key string) (Versioned, error) {
	v, err := s.view(key)
	if err == nil {
		v.Value = bytes.Clone(v.Value)
	}
	return v, err
}

// view is Get without the copy, for the server's handlers, which only
// encode or forward the value. The value is the store's own slice: no write
// changes a stored value in place (each installs a fresh slice), so it
// stays valid, but it must not be written.
func (s *Store) view(key string) (Versioned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok || e.deleted {
		return Versioned{}, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	return Versioned{Value: e.value, Version: e.version}, nil
}

// The mutations below store the write's post-state record in *rec, in
// its storage, for the caller to forward; a nil rec is for a caller that
// ships nothing. A mutation that fails, or changes nothing, leaves *rec
// alone. On a durable store a mutation returns only after its record is
// fsynced.

// scratch is rec, or storage of its own for a caller that passed none.
func scratch(rec *[]byte) *[]byte {
	if rec == nil {
		return new([]byte)
	}
	return rec
}

// recordOverhead bounds a write record's fixed fields: its kind, length
// prefixes, version or expiry and sequence.
const recordOverhead = 64

// fitRecord fails a write whose caller-sized fields — a key and value, or
// a lock name and owner, of lengths a and b — would make its record longer
// than one log record. Every store checks, durable or not, so a primary
// never forwards a record its backups could not log. Delete and Unlock
// need no check: they only rewrite state a checked write created.
func fitRecord(op string, a, b int) error {
	if a+b > wal.MaxRecord-recordOverhead {
		return fmt.Errorf("%s of %d+%d bytes: %w", op, a, b, ErrTooLarge)
	}
	return nil
}

// Put stores value at key and returns the new version.
func (s *Store) Put(key string, value []byte, rec *[]byte) (uint64, error) {
	if err := fitRecord("put", len(key), len(value)); err != nil {
		return 0, err
	}
	rec = scratch(rec)
	s.mu.Lock()
	e := s.data[key]
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = make([]byte, len(value))
	copy(e.value, value)
	s.data[key] = e
	*rec = appendEntryRec((*rec)[:0], key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
	return e.version, nil
}

// Delete removes key, leaving a version-stamped tombstone so replicas and
// rebalance merges order the deletion against stale live copies (see
// entry). Deleting a missing key is a no-op.
func (s *Store) Delete(key string, rec *[]byte) {
	rec = scratch(rec)
	s.mu.Lock()
	e, ok := s.data[key]
	if !ok || e.deleted {
		s.mu.Unlock()
		return
	}
	e.version++
	e.deleted = true
	e.value = nil
	e.tombAt = s.clock.Now()
	s.data[key] = e
	*rec = appendEntryRec((*rec)[:0], key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
}

// CompareAndSwap stores value at key iff the current version equals
// expectVersion (0 means "key must not exist"). On success it returns the
// new version; on conflict it returns ErrCASMismatch and the current value.
func (s *Store) CompareAndSwap(key string, value []byte, expectVersion uint64, rec *[]byte) (uint64, Versioned, error) {
	if err := fitRecord("cas", len(key), len(value)); err != nil {
		return 0, Versioned{}, err
	}
	rec = scratch(rec)
	s.mu.Lock()
	e, exists := s.data[key]
	cur := uint64(0)
	if exists && !e.deleted {
		cur = e.version
	}
	if cur != expectVersion {
		val := make([]byte, len(e.value))
		copy(val, e.value)
		s.mu.Unlock()
		return 0, Versioned{Value: val, Version: cur}, ErrCASMismatch
	}
	// A re-creation continues above the tombstone's version (e.version is
	// the tombstone when the key was deleted), keeping per-key history
	// monotonic for replication ordering.
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = make([]byte, len(value))
	copy(e.value, value)
	s.data[key] = e
	*rec = appendEntryRec((*rec)[:0], key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
	return e.version, Versioned{}, nil
}

// AddInt64 atomically adds delta to the integer stored at key (missing keys
// count as 0) and returns the new value. The value is stored in decimal form
// so it remains readable through Get.
func (s *Store) AddInt64(key string, delta int64, rec *[]byte) (int64, error) {
	if err := fitRecord("add", len(key), len("-9223372036854775808")); err != nil {
		return 0, err
	}
	rec = scratch(rec)
	s.mu.Lock()
	e := s.data[key]
	var cur int64
	if !e.deleted && len(e.value) > 0 {
		v, err := strconv.ParseInt(string(e.value), 10, 64)
		if err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("add %q: %w", key, err)
		}
		cur = v
	}
	cur += delta
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = []byte(strconv.FormatInt(cur, 10))
	s.data[key] = e
	*rec = appendEntryRec((*rec)[:0], key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
	return cur, nil
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k, e := range s.data {
		if !e.deleted && strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored (live) keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.data {
		if !e.deleted {
			n++
		}
	}
	return n
}

// TryLock attempts to acquire the named lock for owner with the given lease.
// Expired leases are broken. Re-acquiring a held lock by the same owner
// renews the lease.
func (s *Store) TryLock(name, owner string, lease time.Duration, rec *[]byte) error {
	if lease <= 0 {
		lease = 30 * time.Second
	}
	if err := fitRecord("lock", len(name), len(owner)); err != nil {
		return err
	}
	rec = scratch(rec)
	now := s.clock.Now()
	s.mu.Lock()
	st, held := s.locks[name]
	if held && st.owner != "" && st.owner != owner && st.expires.After(now) {
		s.mu.Unlock()
		return fmt.Errorf("lock %q owned by %s: %w", name, st.owner, ErrLockHeld)
	}
	s.lockSeq++
	st = lockState{owner: owner, expires: now.Add(lease), seq: s.lockSeq, stamp: now}
	s.locks[name] = st
	*rec = appendLockRec((*rec)[:0], name, st)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
	return nil
}

// Unlock releases the named lock held by owner. The release leaves a
// sequence-stamped tombstone so replicas can order it against in-flight
// lease updates.
func (s *Store) Unlock(name, owner string, rec *[]byte) error {
	rec = scratch(rec)
	s.mu.Lock()
	st, held := s.locks[name]
	if !held || st.owner != owner {
		s.mu.Unlock()
		return fmt.Errorf("unlock %q by %s: %w", name, owner, ErrNotLockOwner)
	}
	s.lockSeq++
	st = lockState{owner: "", expires: time.Time{}, seq: s.lockSeq, stamp: s.clock.Now()}
	s.locks[name] = st
	*rec = appendLockRec((*rec)[:0], name, st)
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(*rec, 1)
	return nil
}

// LockOwner reports the current owner of the named lock, if unexpired.
func (s *Store) LockOwner(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, held := s.locks[name]
	if !held || st.owner == "" || !st.expires.After(s.clock.Now()) {
		return "", false
	}
	return st.owner, true
}
