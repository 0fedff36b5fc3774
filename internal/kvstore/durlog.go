package kvstore

// Durability layer: every Store mutation appends a binary record to an
// internal/wal log and returns only after the record is fsynced (group
// committed when DurOptions.GroupCommit). Periodically the store writes a
// compacted snapshot — the Export/ExportLocks image at a recorded log
// position — and drops the covered log segments. See the package comment's
// "Durability contract" section for the externally visible guarantees.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/ermic"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/wal"
)

// DurOptions configures a durable store. A zero Dir means in-memory only.
type DurOptions struct {
	// Dir is the directory for log segments and snapshots.
	Dir string
	// GroupCommit amortizes one fsync across concurrently admitted
	// mutations (see wal.Options.GroupCommit).
	GroupCommit bool
	// SnapshotEvery is the number of logged mutations between compacted
	// snapshots (default 4096).
	SnapshotEvery int
	// SegmentSize overrides the log segment size (default wal's).
	SegmentSize int
	// TombstoneTTL overrides the tombstone retention horizon (default 5m).
	TombstoneTTL time.Duration
}

// WAL record kinds.
const (
	durEntry    = 1 // key, version, deleted, value
	durLock     = 2 // name, owner, expires, seq
	durDrop     = 3 // hard-removed keys (rebalance cleanup)
	durLockDrop = 4 // hard-removed lock names
)

type durability struct {
	log   *wal.Log
	dir   string
	every uint64

	snapMu    sync.Mutex // serializes snapshotting against clean Close
	snapping  atomic.Bool
	sinceSnap atomic.Uint64

	// Background snapshot failures: silently losing one would leave the
	// log growing unbounded with nothing ever saying why. The last error
	// (cleared on the next success) and a cumulative count are surfaced
	// through Store.SnapshotStats.
	snapErr   atomic.Value // errBox
	snapFails atomic.Uint64
}

// errBox wraps an error for atomic.Value (which cannot hold a bare nil).
type errBox struct{ err error }

// NewStoreDur creates a store persisted under opts.Dir, recovering any
// existing state there first: newest intact snapshot, then the log tail
// past it, both applied through the same version/sequence gates as
// replication — so recovery can never roll a key back or resurrect a
// released lock. With opts.Dir == "" it is NewStore.
func NewStoreDur(clock simclock.Clock, opts DurOptions) (*Store, error) {
	s := NewStore(clock)
	if opts.Dir == "" {
		return s, nil
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 4096
	}
	if opts.TombstoneTTL > 0 {
		s.tombTTL = opts.TombstoneTTL
	}
	snapLSN, img, ok, err := wal.LoadSnapshot(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: recover %s: %w", opts.Dir, err)
	}
	if ok {
		if err := s.installImage(img); err != nil {
			return nil, fmt.Errorf("kvstore: recover %s: %w", opts.Dir, err)
		}
	}
	log, err := wal.Open(opts.Dir, wal.Options{SegmentSize: opts.SegmentSize, GroupCommit: opts.GroupCommit})
	if err != nil {
		return nil, fmt.Errorf("kvstore: recover %s: %w", opts.Dir, err)
	}
	if log.LSN() < snapLSN {
		// A torn tail ate records the snapshot already covers; restart
		// LSNs past the snapshot so future records are never skipped.
		if err := log.Reset(snapLSN); err != nil {
			log.Close()
			return nil, fmt.Errorf("kvstore: recover %s: %w", opts.Dir, err)
		}
	}
	now := s.clock.Now()
	if err := log.Replay(snapLSN, func(_ uint64, rec []byte) error {
		return s.applyRecord(rec, now)
	}); err != nil {
		log.Close()
		return nil, fmt.Errorf("kvstore: recover %s: %w", opts.Dir, err)
	}
	s.dur = &durability{log: log, dir: opts.Dir, every: uint64(opts.SnapshotEvery)}
	return s, nil
}

// Close cleanly shuts the durability layer down (flush + fsync). Waits out
// an in-flight snapshot. No-op for in-memory stores.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	return d.log.Close()
}

// Crash abandons the durability layer as a power cut would: buffered
// unfsynced log records are dropped. Only mutations whose call had
// returned (i.e. were acked) are guaranteed to survive recovery. No-op
// for in-memory stores.
func (s *Store) Crash() error {
	d := s.dur
	if d == nil {
		return nil
	}
	return d.log.Crash()
}

// durCommit appends the non-nil records and blocks until they are durable,
// then triggers a snapshot if enough mutations accumulated. A closed log
// (concurrent Crash/Close) is tolerated — the caller is past its ack point
// or will never ack; any other log failure is fatal, because returning
// would silently break the ack-implies-durable contract.
func (s *Store) durCommit(recs ...[]byte) {
	d := s.dur
	if d == nil {
		return
	}
	var last uint64
	n := 0
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		lsn, err := d.log.Append(rec)
		if err != nil {
			if errors.Is(err, wal.ErrClosed) {
				return
			}
			panic(fmt.Sprintf("kvstore: wal append: %v", err))
		}
		last = lsn
		n++
	}
	if n == 0 {
		return
	}
	if err := d.log.Commit(last); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return
		}
		panic(fmt.Sprintf("kvstore: wal commit: %v", err))
	}
	if d.sinceSnap.Add(uint64(n)) >= d.every {
		s.maybeSnapshot()
	}
}

// maybeSnapshot starts a background snapshot unless one is running.
func (s *Store) maybeSnapshot() {
	d := s.dur
	if !d.snapping.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.snapping.Store(false)
		err := s.snapshotNow()
		if err != nil && errors.Is(err, wal.ErrClosed) {
			// Lost the race with a clean Close: nothing was lost, the
			// final snapshot happens (or already happened) under snapMu.
			err = nil
		}
		if err != nil {
			d.snapFails.Add(1)
		}
		d.snapErr.Store(errBox{err})
	}()
}

// SnapshotStats reports background compaction health: how many background
// snapshots have failed since the store opened, and the most recent
// failure (nil after a succeeding attempt). A persistent error here means
// the log is growing without compaction even though writes still commit.
func (s *Store) SnapshotStats() (fails uint64, last error) {
	d := s.dur
	if d == nil {
		return 0, nil
	}
	if box, ok := d.snapErr.Load().(errBox); ok {
		last = box.err
	}
	return d.snapFails.Load(), last
}

// snapshotNow writes a compacted snapshot and drops covered log segments.
// The LSN is captured BEFORE the image is read, so the image is a
// superset of the state at that position; replaying the tail past it
// re-applies some mutations the image already holds, which the
// version/sequence gates make idempotent. Tombstone GC runs first, so the
// snapshot is also the compaction point that sheds tombstones past the
// retention horizon.
func (s *Store) snapshotNow() error {
	d := s.dur
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	lsn := d.log.LSN()
	s.CompactTombstones()
	img := s.encodeImage()
	if err := wal.SaveSnapshot(d.dir, lsn, img); err != nil {
		return err
	}
	if _, err := d.log.DropBefore(lsn); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	d.sinceSnap.Store(0)
	return nil
}

// --- record and image encoding (internal/ermic primitives) ---

// entryRecLocked encodes one data entry's post-state; nil when the store
// is not durable. Caller holds s.mu.
func (s *Store) entryRecLocked(key string, e entry) []byte {
	if s.dur == nil {
		return nil
	}
	b := make([]byte, 0, 2+len(key)+len(e.value)+12)
	b = ermic.AppendUvarint(b, durEntry)
	b = ermic.AppendString(b, key)
	b = ermic.AppendUvarint(b, e.version)
	b = ermic.AppendBool(b, e.deleted)
	b = ermic.AppendBytes(b, e.value)
	return b
}

// lockRecLocked encodes one lock's post-state; nil when not durable.
func (s *Store) lockRecLocked(name string, st lockState) []byte {
	if s.dur == nil {
		return nil
	}
	b := make([]byte, 0, 2+len(name)+len(st.owner)+20)
	b = ermic.AppendUvarint(b, durLock)
	b = ermic.AppendString(b, name)
	b = ermic.AppendString(b, st.owner)
	b = ermic.AppendTime(b, st.expires)
	b = ermic.AppendUvarint(b, st.seq)
	return b
}

// dropRecLocked encodes a hard-removal (kind durDrop or durLockDrop).
func (s *Store) dropRecLocked(kind uint64, names []string) []byte {
	if s.dur == nil || len(names) == 0 {
		return nil
	}
	size := 4
	for _, n := range names {
		size += len(n) + 2
	}
	b := make([]byte, 0, size)
	b = ermic.AppendUvarint(b, kind)
	b = ermic.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = ermic.AppendString(b, n)
	}
	return b
}

// applyRecord replays one log record through the same gates as
// replication. now stamps recovered tombstones, restarting their GC
// horizon at recovery time (conservative: never earlier than original).
func (s *Store) applyRecord(rec []byte, now time.Time) error {
	kind, rec, err := ermic.ConsumeUvarint(rec)
	if err != nil {
		return fmt.Errorf("kvstore: wal record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch kind {
	case durEntry:
		key, rec, err := ermic.ConsumeString(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal entry record: %w", err)
		}
		version, rec, err := ermic.ConsumeUvarint(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal entry record: %w", err)
		}
		deleted, rec, err := ermic.ConsumeBool(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal entry record: %w", err)
		}
		value, _, err := ermic.ConsumeBytesView(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal entry record: %w", err)
		}
		s.installEntryLocked(key, Versioned{Value: value, Version: version, Deleted: deleted}, now)
	case durLock:
		name, rec, err := ermic.ConsumeString(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal lock record: %w", err)
		}
		owner, rec, err := ermic.ConsumeString(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal lock record: %w", err)
		}
		expires, rec, err := ermic.ConsumeTime(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal lock record: %w", err)
		}
		seq, _, err := ermic.ConsumeUvarint(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal lock record: %w", err)
		}
		s.installLockLocked(name, LockInfo{Owner: owner, Expires: expires, Seq: seq}, now)
	case durDrop, durLockDrop:
		count, rec, err := ermic.ConsumeCount(rec)
		if err != nil {
			return fmt.Errorf("kvstore: wal drop record: %w", err)
		}
		for i := 0; i < count; i++ {
			var name string
			name, rec, err = ermic.ConsumeString(rec)
			if err != nil {
				return fmt.Errorf("kvstore: wal drop record: %w", err)
			}
			if kind == durDrop {
				delete(s.data, name)
			} else {
				delete(s.locks, name)
			}
		}
	default:
		return fmt.Errorf("kvstore: wal record: unknown kind %d", kind)
	}
	return nil
}

// encodeImage serializes the full store state for a snapshot. Reads the
// maps through the chunked exporters, so a large image never stalls the
// write path.
func (s *Store) encodeImage() []byte {
	entries := s.Export(nil)
	locks := s.ExportLocks(nil)
	s.mu.Lock()
	lockSeq := s.lockSeq
	s.mu.Unlock()
	b := make([]byte, 0, 1024)
	b = ermic.AppendUvarint(b, lockSeq)
	b = ermic.AppendUvarint(b, uint64(len(entries)))
	for k, v := range entries {
		b = ermic.AppendString(b, k)
		b = ermic.AppendUvarint(b, v.Version)
		b = ermic.AppendBool(b, v.Deleted)
		b = ermic.AppendBytes(b, v.Value)
	}
	b = ermic.AppendUvarint(b, uint64(len(locks)))
	for name, info := range locks {
		b = ermic.AppendString(b, name)
		b = ermic.AppendString(b, info.Owner)
		b = ermic.AppendTime(b, info.Expires)
		b = ermic.AppendUvarint(b, info.Seq)
	}
	return b
}

// installImage loads a snapshot image into an empty store (recovery,
// before the log tail replays on top).
func (s *Store) installImage(img []byte) error {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	lockSeq, img, err := ermic.ConsumeUvarint(img)
	if err != nil {
		return fmt.Errorf("snapshot image: %w", err)
	}
	n, img, err := ermic.ConsumeCount(img)
	if err != nil {
		return fmt.Errorf("snapshot image: %w", err)
	}
	for i := 0; i < n; i++ {
		var key string
		var version uint64
		var deleted bool
		var value []byte
		key, img, err = ermic.ConsumeString(img)
		if err == nil {
			version, img, err = ermic.ConsumeUvarint(img)
		}
		if err == nil {
			deleted, img, err = ermic.ConsumeBool(img)
		}
		if err == nil {
			value, img, err = ermic.ConsumeBytesView(img)
		}
		if err != nil {
			return fmt.Errorf("snapshot image entry: %w", err)
		}
		s.installEntryLocked(key, Versioned{Value: value, Version: version, Deleted: deleted}, now)
	}
	n, img, err = ermic.ConsumeCount(img)
	if err != nil {
		return fmt.Errorf("snapshot image: %w", err)
	}
	for i := 0; i < n; i++ {
		var name, owner string
		var expires time.Time
		var seq uint64
		name, img, err = ermic.ConsumeString(img)
		if err == nil {
			owner, img, err = ermic.ConsumeString(img)
		}
		if err == nil {
			expires, img, err = ermic.ConsumeTime(img)
		}
		if err == nil {
			seq, img, err = ermic.ConsumeUvarint(img)
		}
		if err != nil {
			return fmt.Errorf("snapshot image lock: %w", err)
		}
		s.installLockLocked(name, LockInfo{Owner: owner, Expires: expires, Seq: seq}, now)
	}
	if lockSeq > s.lockSeq {
		s.lockSeq = lockSeq
	}
	return nil
}
