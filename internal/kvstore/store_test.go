package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"elasticrmi/internal/simclock"
)

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore(nil)
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	v1 := s.Put("k", []byte("a"), nil)
	if v1 != 1 {
		t.Fatalf("first version = %d, want 1", v1)
	}
	got, err := s.Get("k")
	if err != nil || string(got.Value) != "a" || got.Version != 1 {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	v2 := s.Put("k", []byte("b"), nil)
	if v2 != 2 {
		t.Fatalf("second version = %d, want 2", v2)
	}
	s.Delete("k", nil)
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
	s.Delete("k", nil) // idempotent
}

func TestStoreValueIsolation(t *testing.T) {
	s := NewStore(nil)
	buf := []byte("abc")
	s.Put("k", buf, nil)
	buf[0] = 'X' // caller mutation must not leak in
	got, _ := s.Get("k")
	if string(got.Value) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", got.Value)
	}
	got.Value[0] = 'Y' // reader mutation must not leak back
	got2, _ := s.Get("k")
	if string(got2.Value) != "abc" {
		t.Fatalf("reader mutated stored value: %q", got2.Value)
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := NewStore(nil)
	// Create iff absent.
	v, _, err := s.CompareAndSwap("k", []byte("a"), 0, nil)
	if err != nil || v != 1 {
		t.Fatalf("CAS create = %d, %v", v, err)
	}
	// Wrong version fails and reports current.
	_, cur, err := s.CompareAndSwap("k", []byte("b"), 0, nil)
	if !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("CAS stale = %v, want mismatch", err)
	}
	if cur.Version != 1 || string(cur.Value) != "a" {
		t.Fatalf("current = %+v", cur)
	}
	// Correct version succeeds.
	v, _, err = s.CompareAndSwap("k", []byte("b"), 1, nil)
	if err != nil || v != 2 {
		t.Fatalf("CAS update = %d, %v", v, err)
	}
}

func TestAddInt64(t *testing.T) {
	s := NewStore(nil)
	for i := int64(1); i <= 5; i++ {
		got, err := s.AddInt64("n", 1, nil)
		if err != nil || got != i {
			t.Fatalf("Add #%d = %d, %v", i, got, err)
		}
	}
	got, err := s.AddInt64("n", -10, nil)
	if err != nil || got != -5 {
		t.Fatalf("Add(-10) = %d, %v", got, err)
	}
	s.Put("s", []byte("not-a-number"), nil)
	if _, err := s.AddInt64("s", 1, nil); err == nil {
		t.Fatal("Add on non-integer succeeded")
	}
}

func TestAddInt64Concurrent(t *testing.T) {
	s := NewStore(nil)
	const workers, per = 16, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.AddInt64("c", 1, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _ := s.AddInt64("c", 0, nil)
	if got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := NewStore(nil)
	s.Put("a/1", nil, nil)
	s.Put("a/2", nil, nil)
	s.Put("b/1", nil, nil)
	keys := s.Keys("a/")
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Fatalf("Keys(a/) = %v", keys)
	}
	if got := s.Keys(""); len(got) != 3 {
		t.Fatalf("Keys(\"\") = %v", got)
	}
}

func TestLocksMutualExclusion(t *testing.T) {
	s := NewStore(nil)
	if err := s.TryLock("L", "alice", time.Minute, nil); err != nil {
		t.Fatalf("alice lock: %v", err)
	}
	if err := s.TryLock("L", "bob", time.Minute, nil); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("bob lock = %v, want ErrLockHeld", err)
	}
	// Same owner renews.
	if err := s.TryLock("L", "alice", time.Minute, nil); err != nil {
		t.Fatalf("alice renew: %v", err)
	}
	if err := s.Unlock("L", "bob", nil); !errors.Is(err, ErrNotLockOwner) {
		t.Fatalf("bob unlock = %v, want ErrNotLockOwner", err)
	}
	if err := s.Unlock("L", "alice", nil); err != nil {
		t.Fatalf("alice unlock: %v", err)
	}
	if err := s.TryLock("L", "bob", time.Minute, nil); err != nil {
		t.Fatalf("bob lock after release: %v", err)
	}
}

func TestLockLeaseExpiry(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	s := NewStore(clock)
	if err := s.TryLock("L", "alice", 10*time.Second, nil); err != nil {
		t.Fatalf("lock: %v", err)
	}
	clock.Advance(5 * time.Second)
	if err := s.TryLock("L", "bob", time.Second, nil); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("bob before expiry = %v, want held", err)
	}
	clock.Advance(6 * time.Second)
	if err := s.TryLock("L", "bob", time.Second, nil); err != nil {
		t.Fatalf("bob after expiry: %v (lease must break)", err)
	}
	if owner, held := s.LockOwner("L"); !held || owner != "bob" {
		t.Fatalf("owner = %q/%v, want bob", owner, held)
	}
}

func TestExportImport(t *testing.T) {
	s := NewStore(nil)
	s.Put("x/1", []byte("a"), nil)
	s.Put("x/1", []byte("b"), nil) // version 2
	s.Put("y/1", []byte("c"), nil)
	snap := exported(t, s)
	x := snap[stateKey{recEntry, "x/1"}]
	if len(snap) != 2 || x.seq != 2 {
		t.Fatalf("export = %+v", snap)
	}
	dst := NewStore(nil)
	mustApply(t, dst, x.rec)
	got, err := dst.Get("x/1")
	if err != nil || string(got.Value) != "b" || got.Version != 2 {
		t.Fatalf("imported = %+v, %v (version must be preserved)", got, err)
	}
	if _, err := dst.Get("y/1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(y/1) = %v, want ErrNotFound: only x/1's record was applied", err)
	}
}

// Property: Put then Get always returns the stored value with an increased
// version, for arbitrary keys and values.
func TestPutGetProperty(t *testing.T) {
	s := NewStore(nil)
	prop := func(key string, value []byte) bool {
		before, _ := s.Get(key)
		v := s.Put(key, value, nil)
		if v != before.Version+1 {
			return false
		}
		got, err := s.Get(key)
		return err == nil && string(got.Value) == string(value) && got.Version == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddInt64 over any sequence of deltas equals their running sum.
func TestAddInt64Property(t *testing.T) {
	prop := func(deltas []int32) bool {
		s := NewStore(nil)
		var sum int64
		for _, d := range deltas {
			sum += int64(d)
			got, err := s.AddInt64("k", int64(d), nil)
			if err != nil || got != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClientServer(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	c, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	if _, err := c.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := c.Get("k")
	if err != nil || string(got.Value) != "v" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound over the wire", err)
	}
	if _, err := c.CompareAndSwap("k", []byte("w"), 99); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("CAS = %v, want ErrCASMismatch over the wire", err)
	}
	if err := c.TryLock("L", "a", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	if err := c.TryLock("L", "b", time.Minute); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("TryLock(b) = %v, want ErrLockHeld over the wire", err)
	}
	n, err := c.AddInt64("cnt", 7)
	if err != nil || n != 7 {
		t.Fatalf("AddInt64 = %d, %v", n, err)
	}
}

func TestClusterShardingAndMigration(t *testing.T) {
	cl, err := NewCluster(2, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()

	const n = 64
	for i := 0; i < n; i++ {
		if _, err := cl.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if cl.Nodes() != 3 {
		t.Fatalf("nodes = %d, want 3", cl.Nodes())
	}
	// Every key must still be readable after migration.
	for i := 0; i < n; i++ {
		got, err := cl.Get(fmt.Sprintf("key-%03d", i))
		if err != nil {
			t.Fatalf("Get(key-%03d) after migration: %v", i, err)
		}
		if string(got.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key-%03d = %q", i, got.Value)
		}
	}
	// No key may exist on two nodes (R=1: replicas would be duplicates).
	keys, err := cl.Keys("key-")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("Keys returned %d of %d keys", len(keys), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", i)
		copies := 0
		for _, nd := range cl.nodes {
			if _, err := nd.srv.store.Get(key); err == nil {
				copies++
			}
		}
		if copies != 1 {
			t.Fatalf("%s on %d nodes, want exactly 1 at R=1", key, copies)
		}
	}
}

func TestExportImportLocks(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	src := NewStore(clock)
	if err := src.TryLock("A", "alice", time.Minute, nil); err != nil {
		t.Fatalf("TryLock A: %v", err)
	}
	if err := src.TryLock("B", "bob", time.Second, nil); err != nil {
		t.Fatalf("TryLock B: %v", err)
	}
	if err := src.TryLock("other", "carol", time.Minute, nil); err != nil {
		t.Fatalf("TryLock other: %v", err)
	}
	clock.Advance(2 * time.Second) // B's lease expires

	snap := exported(t, src)
	if _, ok := snap[stateKey{recLock, "other"}]; !ok {
		t.Fatal("export left out a lock")
	}
	a := decoded(t, snap[stateKey{recLock, "A"}])
	if string(a.owner) != "alice" || !a.expires.Equal(time.Unix(60, 0)) {
		t.Fatalf("exported A = %+v (owner and absolute expiry must be carried)", a)
	}

	dst := NewStore(clock)
	mustApply(t, dst, append(snap[stateKey{recLock, "A"}].rec, snap[stateKey{recLock, "B"}].rec...))
	if _, held := dst.LockOwner("other"); held {
		t.Fatal("a lock whose record was not applied is held")
	}
	if owner, held := dst.LockOwner("A"); !held || owner != "alice" {
		t.Fatalf("imported A owner = %q/%v, want alice", owner, held)
	}
	// B expired before export; its state may travel but must not be held.
	if _, held := dst.LockOwner("B"); held {
		t.Fatal("expired lease imported as held")
	}
	if err := dst.TryLock("A", "mallory", time.Minute, nil); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("TryLock(mallory) on imported lease = %v, want ErrLockHeld", err)
	}
	if err := dst.Unlock("A", "alice", nil); err != nil {
		t.Fatalf("Unlock(alice) on imported lease: %v", err)
	}
}

// TestImportLocksOrdering: a re-delivered older lease (smaller sequence)
// must never overwrite a newer state — in particular it must not
// resurrect a released lock.
func TestImportLocksOrdering(t *testing.T) {
	src := NewStore(nil)
	if err := src.TryLock("L", "alice", time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	heldSnap := exported(t, src)[stateKey{recLock, "L"}].rec // lease at seq 1
	if err := src.Unlock("L", "alice", nil); err != nil {
		t.Fatal(err)
	}
	releasedSnap := exported(t, src)[stateKey{recLock, "L"}].rec // tombstone at seq 2

	dst := NewStore(nil)
	mustApply(t, dst, releasedSnap)
	mustApply(t, dst, heldSnap) // delayed re-delivery of the older lease
	if owner, held := dst.LockOwner("L"); held {
		t.Fatalf("released lock resurrected by stale import (owner %q)", owner)
	}
	// Local mutations after an import must outrank everything imported.
	if err := dst.TryLock("L", "bob", time.Minute, nil); err != nil {
		t.Fatal(err)
	}
	mustApply(t, dst, releasedSnap)
	if owner, held := dst.LockOwner("L"); !held || owner != "bob" {
		t.Fatalf("local acquisition lost to stale import: %q/%v", owner, held)
	}
}

// TestImportVersionGate: applying records is idempotent and can never
// roll a key back to an older version.
func TestImportVersionGate(t *testing.T) {
	s := NewStore(nil)
	s.Put("k", []byte("v1"), nil)
	s.Put("k", []byte("v2"), nil) // version 2
	mustApply(t, s, entryRec("k", entry{value: []byte("stale"), version: 1}))
	got, err := s.Get("k")
	if err != nil || string(got.Value) != "v2" || got.Version != 2 {
		t.Fatalf("stale import rolled key back: %+v, %v", got, err)
	}
	mustApply(t, s, entryRec("k", entry{value: []byte("v5"), version: 5}))
	if got, _ := s.Get("k"); got.Version != 5 {
		t.Fatalf("newer import rejected: %+v", got)
	}
}

func TestClusterLocksRouteByName(t *testing.T) {
	cl, err := NewCluster(3, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	if err := cl.TryLock("L", "a", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	if err := cl.TryLock("L", "b", time.Minute); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("second TryLock = %v, want ErrLockHeld (same shard)", err)
	}
	if err := cl.Unlock("L", "a"); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
}

// TestDeleteTombstoneOrdering: deletions leave version-stamped tombstones
// invisible to readers but decisive in merges — a stale live copy can
// never outrank (resurrect past) a deletion, and a re-created key
// continues above its tombstone.
func TestDeleteTombstoneOrdering(t *testing.T) {
	s := NewStore(nil)
	s.Put("k", []byte("a"), nil) // v1
	s.Delete("k", nil)           // tombstone v2
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
	}
	if s.Len() != 0 || len(s.Keys("")) != 0 {
		t.Fatalf("tombstone visible: Len=%d Keys=%v", s.Len(), s.Keys(""))
	}
	h, ok := exported(t, s)[stateKey{recEntry, "k"}]
	if e := decoded(t, h); !ok || !e.deleted || e.seq != 2 {
		t.Fatalf("exported tombstone = %+v, %v", e, ok)
	}
	// A stale live copy (the pre-delete value) must not resurrect the key.
	mustApply(t, s, entryRec("k", entry{value: []byte("stale"), version: 1}))
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale import resurrected deleted key: %v", err)
	}
	// Re-creation continues above the tombstone.
	if v := s.Put("k", []byte("b"), nil); v != 3 {
		t.Fatalf("re-created version = %d, want 3 (must continue above tombstone)", v)
	}
	s.Delete("k", nil) // tombstone v4
	v, _, err := s.CompareAndSwap("k", []byte("c"), 0, nil)
	if err != nil || v != 5 {
		t.Fatalf("CAS create after delete = %d, %v (deleted key counts as absent)", v, err)
	}
	s.Delete("k", nil) // tombstone v6
	if n, err := s.AddInt64("k", 4, nil); err != nil || n != 4 {
		t.Fatalf("Add after delete = %d, %v (deleted key counts as 0)", n, err)
	}
	if got, _ := s.Get("k"); got.Version != 7 {
		t.Fatalf("Add version = %d, want 7", got.Version)
	}
}
