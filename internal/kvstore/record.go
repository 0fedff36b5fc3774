package kvstore

// The state record: the one format in which a store's state moves. A write
// builds its post-state record once; the primary logs it and forwards the
// same bytes to its backups; migration exports and imports streams of
// records; the snapshot image's body is one; recovery replays them. A
// stream is records back to back: each is self-delimiting, so a stream
// needs no framing of its own, and a log record holds a stream too.

import (
	"fmt"
	"time"

	"elasticrmi/internal/ermic"
)

// Record kinds. They keep the layouts the write-ahead log has always
// used, so an existing log replays as it is.
const (
	recEntry    = 1 // key, version, deleted, value
	recLock     = 2 // name, owner, expires, seq
	recDrop     = 3 // count, keys: hard-removed (rebalance cleanup)
	recLockDrop = 4 // count, lock names: hard-removed
)

// appendEntryRec appends the record of key's state e.
func appendEntryRec(b []byte, key string, e entry) []byte {
	b = ermic.AppendUvarint(b, recEntry)
	b = ermic.AppendString(b, key)
	b = ermic.AppendUvarint(b, e.version)
	b = ermic.AppendBool(b, e.deleted)
	return ermic.AppendBytes(b, e.value)
}

// appendLockRec appends the record of lock name's state st.
func appendLockRec(b []byte, name string, st lockState) []byte {
	b = ermic.AppendUvarint(b, recLock)
	b = ermic.AppendString(b, name)
	b = ermic.AppendString(b, st.owner)
	b = ermic.AppendTime(b, st.expires)
	return ermic.AppendUvarint(b, st.seq)
}

// appendDropRec appends a hard removal of names (kind recDrop or
// recLockDrop); no names append nothing.
func appendDropRec(b []byte, kind uint64, names []string) []byte {
	if len(names) == 0 {
		return b
	}
	b = ermic.AppendUvarint(b, kind)
	b = ermic.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = ermic.AppendString(b, n)
	}
	return b
}

// record is one decoded record. Its byte fields view the stream.
type record struct {
	kind uint64
	name []byte // key or lock name; for a drop, the encoded name list
	n    int    // drop: how many names
	// seq orders the record against others of its name: an entry's
	// version, a lock's sequence.
	seq     uint64
	deleted bool
	value   []byte
	owner   []byte
	expires time.Time
}

// consumeRecord decodes the record at the head of b and returns the rest.
func consumeRecord(b []byte) (r record, rest []byte, err error) {
	r.kind, b, err = ermic.ConsumeUvarint(b)
	switch {
	case err != nil:
	case r.kind == recEntry:
		r.name, b, err = ermic.ConsumeBytesView(b)
		if err == nil {
			r.seq, b, err = ermic.ConsumeUvarint(b)
		}
		if err == nil {
			r.deleted, b, err = ermic.ConsumeBool(b)
		}
		if err == nil {
			r.value, b, err = ermic.ConsumeBytesView(b)
		}
	case r.kind == recLock:
		r.name, b, err = ermic.ConsumeBytesView(b)
		if err == nil {
			r.owner, b, err = ermic.ConsumeBytesView(b)
		}
		if err == nil {
			r.expires, b, err = ermic.ConsumeTime(b)
		}
		if err == nil {
			r.seq, b, err = ermic.ConsumeUvarint(b)
		}
	case r.kind == recDrop || r.kind == recLockDrop:
		r.n, b, err = ermic.ConsumeCount(b)
		names := b
		for i := 0; i < r.n && err == nil; i++ {
			_, b, err = ermic.ConsumeBytesView(b)
		}
		if err == nil {
			r.name = names[:len(names)-len(b)]
		}
	default:
		return r, nil, fmt.Errorf("kvstore: record: unknown kind %d", r.kind)
	}
	if err != nil {
		return r, nil, fmt.Errorf("kvstore: record kind %d: %w", r.kind, err)
	}
	return r, b, nil
}

// applyRecords applies a record stream — a primary's forward, a migration
// import or cleanup, a snapshot image's body, a log record on recovery —
// through the version and sequence gates: newer-or-equal versions win, so
// re-delivered or overlapping streams are idempotent and can never roll a
// key back, nor resurrect a deletion (tombstones outrank the values they
// superseded); a lock takes only a newer sequence. The whole stream is
// validated first, so a malformed one applies nothing. A durable store
// logs the stream as received, gated records included: replay is gated
// the same way.
func (s *Store) applyRecords(recs []byte) error {
	n := 0
	for b := recs; len(b) > 0; n++ {
		var err error
		if _, b, err = consumeRecord(b); err != nil {
			return err
		}
	}
	now := s.clock.Now()
	s.mu.Lock()
	for b := recs; len(b) > 0; {
		var r record
		r, b, _ = consumeRecord(b)
		switch r.kind {
		case recEntry:
			s.installEntryLocked(&r, now)
		case recLock:
			s.installLockLocked(&r, now)
		default:
			names := r.name
			for range r.n {
				var name []byte
				name, names, _ = ermic.ConsumeBytesView(names)
				if r.kind == recDrop {
					delete(s.data, string(name))
				} else {
					delete(s.locks, string(name))
				}
			}
		}
	}
	s.maybeGCLocked()
	s.mu.Unlock()
	s.durCommit(recs, n)
	return nil
}

// installEntryLocked applies one entry record through the version gate.
// now stamps a tombstone's GC horizon (on recovery: restarted, never
// earlier than the original).
func (s *Store) installEntryLocked(r *record, now time.Time) {
	if cur, ok := s.data[string(r.name)]; ok && cur.version > r.seq {
		return
	}
	e := entry{version: r.seq, deleted: r.deleted}
	if r.deleted {
		e.tombAt = now
	} else {
		e.value = make([]byte, len(r.value))
		copy(e.value, r.value)
	}
	s.data[string(r.name)] = e
}

// installLockLocked applies one lock record through the sequence gate (a
// newer sequence wins) and advances the store's own counter past it, so
// local mutations made after a promotion keep winning over anything
// replicated before it. A lease already expired on arrival installs as a
// release tombstone: invisible to readers either way, but installed held
// it would occupy the table and win sequence comparisons as live state.
func (s *Store) installLockLocked(r *record, now time.Time) {
	if cur, ok := s.locks[string(r.name)]; ok && cur.seq >= r.seq {
		return
	}
	st := lockState{seq: r.seq, stamp: now}
	if r.expires.After(now) {
		st.owner, st.expires = string(r.owner), r.expires
	}
	s.locks[string(r.name)] = st
	s.lockSeq = max(s.lockSeq, r.seq)
}

// exportChunkSize bounds how many records appendExport builds per store
// lock acquisition, so a large export never stalls the write path for
// more than one chunk's copy time.
const exportChunkSize = 512

// exportPause is a test hook invoked between export chunks with the store
// mutex released; it lets tests prove concurrent mutations are admitted
// mid-export.
var exportPause func()

// appendExport appends the store's whole state to b as a record stream:
// every data entry, deletion tombstones included, so migration and repair
// preserve deletion ordering; and every lock state, release tombstones
// and expired leases included, whose sequences keep replicated updates
// ordered. It feeds migration (the Export RPC) and the snapshotter.
//
// The stream is built in chunks, releasing the store mutex between them,
// so a concurrent write never waits behind a full-state copy. It is
// therefore consistent per key, not point in time: a key mutated
// mid-export may appear at either version. Every consumer applies it
// through the version and sequence gates, for which per-key-atomic is
// enough — a newer version seen early can only win again later.
func (s *Store) appendExport(b []byte) []byte {
	s.mu.Lock()
	keys := make([]string, 0, len(s.data)+len(s.locks))
	for k := range s.data {
		keys = append(keys, k)
	}
	nData := len(keys)
	for name := range s.locks {
		keys = append(keys, name)
	}
	s.mu.Unlock()
	for start := 0; start < len(keys); start += exportChunkSize {
		end := min(start+exportChunkSize, len(keys))
		s.mu.Lock()
		for i := start; i < end; i++ {
			// A name dropped between chunks is skipped.
			if i < nData {
				if e, ok := s.data[keys[i]]; ok {
					b = appendEntryRec(b, keys[i], e)
				}
			} else if st, ok := s.locks[keys[i]]; ok {
				b = appendLockRec(b, keys[i], st)
			}
		}
		s.mu.Unlock()
		if exportPause != nil && end < len(keys) {
			exportPause()
		}
	}
	return b
}

// stateKey names one unit of state in a merge: a data key (kind recEntry)
// or a lock name (recLock). Keyed by kind, a data key "lock/x" cannot
// collide with the lock "x".
type stateKey struct {
	kind uint64
	name string
}

// routeKey is the ring key that places k.
func (k stateKey) routeKey() string {
	if k.kind == recLock {
		return lockRouteKey(k.name)
	}
	return k.name
}

func (k stateKey) String() string {
	if k.kind == recLock {
		return fmt.Sprintf("lock %q", k.name)
	}
	return fmt.Sprintf("key %q", k.name)
}

// stateRec is one unit of state as some node exported it: its record and
// the version or sequence that orders it.
type stateRec struct {
	seq uint64
	rec []byte
}

// indexExport indexes an export stream by state key. An export holds
// only entry and lock records.
func indexExport(recs []byte) (map[stateKey]stateRec, error) {
	out := make(map[stateKey]stateRec)
	for len(recs) > 0 {
		r, rest, err := consumeRecord(recs)
		if err != nil {
			return nil, err
		}
		if r.kind != recEntry && r.kind != recLock {
			return nil, fmt.Errorf("kvstore: export holds a record of kind %d", r.kind)
		}
		out[stateKey{r.kind, string(r.name)}] = stateRec{seq: r.seq, rec: recs[:len(recs)-len(rest)]}
		recs = rest
	}
	return out, nil
}
