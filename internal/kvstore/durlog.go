package kvstore

// Durability layer: every Store mutation appends its state record (see
// record.go) to an internal/wal log and returns only after the record is
// fsynced (group committed when DurOptions.GroupCommit); a backup logs the
// record stream it applies as received. Periodically the store writes a
// compacted snapshot — its whole state as a record stream, at a recorded
// log position — and drops the covered log segments. See the package
// comment's "Durability contract" section for the externally visible
// guarantees.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
}

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
	if err := log.Replay(snapLSN, func(_ uint64, recs []byte) error {
		return s.applyRecords(recs)
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

// durCommit logs a stream of n records and blocks until it is durable,
// then triggers a snapshot if enough mutations accumulated. A stream
// longer than one log record takes several, cut between records. A closed
// log (concurrent Crash/Close) is tolerated — the caller is past its ack
// point or will never ack; any other log failure is fatal, because
// returning would silently break the ack-implies-durable contract.
func (s *Store) durCommit(recs []byte, n int) {
	d := s.dur
	if d == nil || n == 0 {
		return
	}
	var last uint64
	for len(recs) > 0 {
		cut := len(recs)
		if cut > wal.MaxRecord {
			// The longest run of whole records that fits, but at least
			// one record (an oversized one fails its append).
			cut = 0
			for {
				_, rest, _ := consumeRecord(recs[cut:])
				next := len(recs) - len(rest)
				if next > wal.MaxRecord && cut > 0 {
					break
				}
				cut = next
			}
		}
		lsn, err := d.log.Append(recs[:cut])
		if err != nil {
			if errors.Is(err, wal.ErrClosed) {
				return
			}
			panic(fmt.Sprintf("kvstore: wal append: %v", err))
		}
		last, recs = lsn, recs[cut:]
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
	s.mu.Lock()
	lockSeq := s.lockSeq
	s.mu.Unlock()
	img := s.appendExport(ermic.AppendUvarint([]byte(imageTag), lockSeq))
	if err := wal.SaveSnapshot(d.dir, lsn, img); err != nil {
		return err
	}
	if _, err := d.log.DropBefore(lsn); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	d.sinceSnap.Store(0)
	return nil
}

// imageTag opens a snapshot image: the layout is the tag, the store's
// lock sequence counter, then a record stream of the whole state. The
// layout before it opened with a canonical uvarint, which never ends in a
// zero byte after a continuation byte, so no image in that layout starts
// with this tag and recovery refuses one rather than misreading it.
const imageTag = "\x80\x00rec"

// installImage loads a snapshot image into an empty store (recovery,
// before the log tail replays on top).
func (s *Store) installImage(img []byte) error {
	body, ok := bytes.CutPrefix(img, []byte(imageTag))
	if !ok {
		return errors.New("snapshot image: not in the record layout (written by an older version?)")
	}
	lockSeq, body, err := ermic.ConsumeUvarint(body)
	if err != nil {
		return fmt.Errorf("snapshot image: %w", err)
	}
	if err := s.applyRecords(body); err != nil {
		return fmt.Errorf("snapshot image: %w", err)
	}
	s.mu.Lock()
	s.lockSeq = max(s.lockSeq, lockSeq)
	s.mu.Unlock()
	return nil
}
