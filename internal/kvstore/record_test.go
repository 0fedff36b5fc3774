package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"elasticrmi/internal/ermic"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/wal"
)

// entryRec and lockRec build one record of the given state.
func entryRec(key string, e entry) []byte { return appendEntryRec(nil, key, e) }

func lockRec(name string, st lockState) []byte { return appendLockRec(nil, name, st) }

// mustApply applies a record stream to s, failing the test on an error.
func mustApply(t testing.TB, s *Store, recs []byte) {
	t.Helper()
	if err := s.applyRecords(recs); err != nil {
		t.Fatalf("applyRecords: %v", err)
	}
}

// exported is s's whole state, indexed as a rebalance merge sees it.
func exported(t testing.TB, s *Store) map[stateKey]stateRec {
	t.Helper()
	state, err := indexExport(s.appendExport(nil))
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	return state
}

// stateOf is s's whole state read straight from its tables, each unit as
// its record: an observer that does not go through the export.
func stateOf(s *Store) map[stateKey]stateRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[stateKey]stateRec, len(s.data)+len(s.locks))
	for k, e := range s.data {
		out[stateKey{recEntry, k}] = stateRec{seq: e.version, rec: entryRec(k, e)}
	}
	for name, st := range s.locks {
		out[stateKey{recLock, name}] = stateRec{seq: st.seq, rec: lockRec(name, st)}
	}
	return out
}

// decoded is the record of one exported unit of state.
func decoded(t testing.TB, h stateRec) record {
	t.Helper()
	r, _, err := consumeRecord(h.rec)
	if err != nil {
		t.Fatalf("exported record: %v", err)
	}
	return r
}

func sameRecords(a, b stateRec) bool { return bytes.Equal(a.rec, b.rec) }

// seedStream holds a record of every kind.
func seedStream() []byte {
	b := entryRec("k", entry{value: []byte("r"), version: 9})
	b = appendEntryRec(b, "dead", entry{version: 3, deleted: true})
	b = appendLockRec(b, "L", lockState{owner: "a", expires: time.Unix(1<<31, 0), seq: 4})
	b = appendDropRec(b, recDrop, []string{"gone"})
	return appendDropRec(b, recLockDrop, []string{"M"})
}

// FuzzApplyRecords feeds arbitrary bytes to the one apply path. It must
// never panic, and a stream that fails validation must leave the store's
// state as it was: a malformed stream applies nothing, not a prefix.
func FuzzApplyRecords(f *testing.F) {
	recs := seedStream()
	f.Add(recs)
	f.Add(recs[:len(recs)-1])
	for b := recs; len(b) > 0; {
		_, rest, _ := consumeRecord(b)
		f.Add(b[:len(b)-len(rest)])
		b = rest
	}
	f.Fuzz(func(t *testing.T, recs []byte) {
		s := NewStore(simclock.NewSim(time.Unix(1_000_000, 0)))
		// State that every seed record changes, so a partly applied
		// stream shows.
		base := entryRec("k", entry{value: []byte("old"), version: 1})
		base = appendEntryRec(base, "gone", entry{value: []byte("x"), version: 2})
		mustApply(t, s, appendLockRec(base, "M", lockState{owner: "b", expires: time.Unix(1<<31, 0), seq: 2}))
		before := stateOf(s)
		if err := s.applyRecords(recs); err == nil {
			return
		}
		if after := stateOf(s); !maps.EqualFunc(before, after, sameRecords) {
			t.Fatalf("a rejected stream changed the store: %v -> %v", before, after)
		}
	})
}

// TestRecoveryRefusesOldImageLayout: a snapshot image in the layout that
// preceded the record stream (lock sequence, entry count, entries, lock
// count, locks) fails recovery instead of being misread: its entry count
// would read as a record kind.
func TestRecoveryRefusesOldImageLayout(t *testing.T) {
	oldImage := func(lockSeq uint64, lockName string) []byte {
		img := ermic.AppendUvarint(nil, lockSeq)
		img = ermic.AppendUvarint(img, 1) // one entry
		img = ermic.AppendString(img, "k")
		img = ermic.AppendUvarint(img, 2)
		img = ermic.AppendBool(img, false)
		img = ermic.AppendBytes(img, []byte("v"))
		if lockName == "" {
			return ermic.AppendUvarint(img, 0)
		}
		img = ermic.AppendUvarint(img, 1) // one lock, released
		img = ermic.AppendString(img, lockName)
		img = ermic.AppendString(img, "")
		img = ermic.AppendTime(img, time.Time{})
		return ermic.AppendUvarint(img, 0)
	}
	// With a released lock, all that follows the lock sequence also reads
	// as a valid record stream (an entry, then a tombstone), so only the
	// layout's tag can tell.
	misread := oldImage(128, "L")
	_, body, _ := ermic.ConsumeUvarint(misread)
	if err := NewStore(nil).applyRecords(body); err != nil {
		t.Fatalf("the old image no longer reads as records: %v", err)
	}
	for _, img := range [][]byte{oldImage(7, ""), misread} {
		dir := t.TempDir()
		if err := wal.SaveSnapshot(dir, 0, img); err != nil {
			t.Fatal(err)
		}
		if s, err := NewStoreDur(nil, DurOptions{Dir: dir}); err == nil {
			s.Close()
			t.Fatalf("recovery accepted an image in the old layout: % x", img)
		}
	}
}

// TestStateRoutesAgree runs one seeded sequence of writes against a
// durable R=2 cluster of two nodes, so each node is the backup of every key
// and lock the other heads, and checks that the four routes by which state
// reaches a node leave the same state: the backup fed by forwards, a
// restart from the log alone, a restart from a snapshot plus the log tail,
// and a node added by an AddNode rebalance.
func TestStateRoutesAgree(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1_000_000, 0))
	dir := t.TempDir()
	cl, err := NewDurable(2, 2, clock, DurOptions{Dir: dir, SnapshotEvery: 1 << 30})
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(28))
	run := func(n int) {
		for range n {
			key := fmt.Sprintf("k%d", rng.Intn(16))
			lock, owner := fmt.Sprintf("L%d", rng.Intn(4)), fmt.Sprintf("o%d", rng.Intn(2))
			var err error
			switch rng.Intn(6) {
			case 0:
				_, err = cl.Put(key, fmt.Appendf(nil, "v%d", rng.Int()))
			case 1:
				err = cl.Delete(key)
			case 2:
				var v Versioned
				if v, err = cl.Get(key); err == nil || errors.Is(err, ErrNotFound) {
					_, err = cl.CompareAndSwap(key, []byte("cas"), v.Version)
				}
			case 3:
				_, err = cl.AddInt64("n"+key, int64(rng.Intn(10)))
			case 4:
				err = cl.TryLock(lock, owner, time.Minute)
			case 5:
				err = cl.Unlock(lock, owner)
			}
			if err != nil && !errors.Is(err, ErrLockHeld) && !errors.Is(err, ErrNotLockOwner) {
				t.Fatalf("op on %s/%s: %v", key, lock, err)
			}
		}
	}
	run(200)
	for _, nd := range cl.nodes {
		if err := nd.srv.store.snapshotNow(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	run(200)

	agree := func(route string, got, want map[stateKey]stateRec) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: nothing to compare", route)
		}
		if !maps.EqualFunc(got, want, sameRecords) {
			t.Errorf("%s: %d units of state, want %d; differing: %v", route, len(got), len(want), differing(got, want))
		}
	}
	var live [2]map[stateKey]stateRec
	for i, nd := range cl.nodes {
		live[i] = stateOf(nd.srv.store)
	}
	agree("backup fed by forwards", live[1], live[0])

	for i, nd := range cl.nodes {
		for _, route := range []string{"restart from the log", "restart from snapshot plus tail"} {
			copyDir := filepath.Join(t.TempDir(), "node")
			if err := os.CopyFS(copyDir, os.DirFS(nd.dir)); err != nil {
				t.Fatal(err)
			}
			snaps, _ := filepath.Glob(filepath.Join(copyDir, "snap-*.snap"))
			if len(snaps) != 1 {
				t.Fatalf("node %d holds %d snapshots, want 1", i, len(snaps))
			}
			if route == "restart from the log" {
				os.Remove(snaps[0])
			}
			s, err := NewStoreDur(clock, DurOptions{Dir: copyDir})
			if err != nil {
				t.Fatalf("%s: %v", route, err)
			}
			agree(fmt.Sprintf("node %d %s", i, route), stateOf(s), live[i])
			s.Close()
		}
	}

	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	added := stateOf(cl.nodes[2].srv.store)
	want := make(map[stateKey]stateRec)
	for k, h := range live[0] {
		if slices.Contains(cl.ring.Owners(k.routeKey(), cl.effRF()), 2) {
			want[k] = h
		}
	}
	agree("node added by rebalance", added, want)
}

// differing lists the units of state on which two exports disagree.
func differing(a, b map[stateKey]stateRec) []stateKey {
	var out []stateKey
	for k, h := range a {
		if o, ok := b[k]; !ok || !sameRecords(h, o) {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}
