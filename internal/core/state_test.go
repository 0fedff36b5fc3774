package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"elasticrmi/internal/kvstore"
)

func newTestState(t *testing.T, class, owner string) (*State, *kvstore.Cluster) {
	t.Helper()
	store, err := kvstore.NewCluster(1, nil)
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	t.Cleanup(store.Close)
	return NewState(class, owner, store, nil), store
}

func TestStateKeyNamespacing(t *testing.T) {
	s, store := newTestState(t, "C1", "m1")
	if got := s.Key("x"); got != "C1$x" {
		t.Fatalf("Key = %q, want C1$x (Fig. 6 naming)", got)
	}
	if err := s.PutInt("x", 5); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	// The raw store sees the namespaced key.
	raw, err := store.Get("C1$x")
	if err != nil || string(raw.Value) != "5" {
		t.Fatalf("raw = %q, %v, want decimal \"5\"", raw.Value, err)
	}
	// A different class does not see it.
	other := NewState("C2", "m1", store, nil)
	v, err := other.GetInt("x")
	if err != nil || v != 0 {
		t.Fatalf("cross-class read = %d, %v, want 0", v, err)
	}
}

func TestStateTypedAccessors(t *testing.T) {
	s, _ := newTestState(t, "C", "m")
	if err := s.PutString("s", "hello"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetString("s"); got != "hello" {
		t.Fatalf("string = %q", got)
	}
	if got, err := s.GetString("missing"); err != nil || got != "" {
		t.Fatalf("missing string = %q, %v, want \"\"", got, err)
	}
	if err := s.PutInt("neg", -3); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetInt("neg"); err != nil || got != -3 {
		t.Fatalf("int = %d, %v", got, err)
	}
	if _, err := s.GetInt("s"); err == nil || !strings.Contains(err.Error(), `key "C$s" is not an integer`) {
		t.Fatalf("GetInt(non-integer) = %v, want a not-an-integer error", err)
	}
	if err := s.PutBytes("b", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.GetBytes("b"); len(got) != 2 {
		t.Fatalf("bytes = %v", got)
	}
	if got, _ := s.GetBytes("missing"); got != nil {
		t.Fatalf("missing bytes = %v, want nil", got)
	}
	if n, _ := s.AddInt("i", 3); n != 3 {
		t.Fatalf("add = %d", n)
	}
	if err := s.Delete("i"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.GetInt("i"); n != 0 {
		t.Fatalf("deleted int = %d", n)
	}
}

func TestStateFieldsList(t *testing.T) {
	s, _ := newTestState(t, "C", "m")
	s.PutInt("a", 1)
	s.PutInt("b", 2)
	fields, err := s.Fields()
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0] != "a" || fields[1] != "b" {
		t.Fatalf("fields = %v", fields)
	}
}

// TestSynchronizedMutualExclusion runs racing increments through the
// per-class lock: the final value proves critical sections never overlap,
// across members and within one member.
func TestSynchronizedMutualExclusion(t *testing.T) {
	sA, store := newTestState(t, "C", "memberA")
	sB := NewState("C", "memberB", store, nil)

	const workers, per = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		st := sA
		if w%2 == 1 {
			st = sB
		}
		go func(st *State) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := st.Synchronized(func() error {
					// Deliberately non-atomic read-modify-write: only the
					// lock makes it safe.
					v, err := st.GetInt("counter")
					if err != nil {
						return err
					}
					return st.PutInt("counter", v+1)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(st)
	}
	wg.Wait()
	got, err := sA.GetInt("counter")
	if err != nil || got != workers*per {
		t.Fatalf("counter = %d, %v, want %d", got, err, workers*per)
	}
}

func TestTryLockContention(t *testing.T) {
	s, _ := newTestState(t, "C", "m")
	rel1, ok, err := s.TryLock("L")
	if err != nil || !ok {
		t.Fatalf("first TryLock: %v %v", ok, err)
	}
	_, ok, err = s.TryLock("L")
	if err != nil || ok {
		t.Fatalf("second TryLock should fail: ok=%v err=%v", ok, err)
	}
	if err := rel1(); err != nil {
		t.Fatalf("release: %v", err)
	}
	rel2, ok, err := s.TryLock("L")
	if err != nil || !ok {
		t.Fatalf("TryLock after release: %v %v", ok, err)
	}
	rel2()
}

// Property: round-tripping arbitrary byte values through a field preserves
// them exactly.
func TestStateBytesRoundTripProperty(t *testing.T) {
	s, _ := newTestState(t, "P", "m")
	prop := func(field string, value []byte) bool {
		if field == "" {
			field = "f"
		}
		if err := s.PutBytes(field, value); err != nil {
			return false
		}
		got, err := s.GetBytes(field)
		if err != nil {
			return false
		}
		if len(value) == 0 {
			return len(got) == 0
		}
		return string(got) == string(value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStateSurvivesStoreNodeLoss: with a replicated store (R=2), elastic-
// object field access and class locks ride out the crash of a store node —
// the cluster promotes backups and State's bounded retry absorbs the blip.
func TestStateSurvivesStoreNodeLoss(t *testing.T) {
	store, err := kvstore.NewReplicated(2, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer store.Close()
	st := NewState("Acct", "member-1", store, nil)

	if err := st.PutInt("balance", 7); err != nil {
		t.Fatalf("PutInt: %v", err)
	}
	release, ok, err := st.TryLock("guard")
	if err != nil || !ok {
		t.Fatalf("TryLock = %v, %v", ok, err)
	}

	if err := store.CrashNode(store.Addrs()[0]); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}

	if v, err := st.GetInt("balance"); err != nil || v != 7 {
		t.Fatalf("GetInt after crash = %d, %v (acked field write lost)", v, err)
	}
	if err := st.PutInt("balance", 8); err != nil {
		t.Fatalf("PutInt after crash: %v", err)
	}
	if _, ok, err := st.TryLock("guard"); err != nil || ok {
		t.Fatalf("second TryLock after crash = %v, %v; want held (lease must survive failover)", ok, err)
	}
	if err := release(); err != nil {
		t.Fatalf("release after crash: %v", err)
	}
	if err := st.Synchronized(func() error { return nil }); err != nil {
		t.Fatalf("Synchronized after crash: %v", err)
	}
}

// newSessionState returns a State reading through a ClusterSession over a
// three-node store, with a per-session cache of maxEntries.
func newSessionState(t *testing.T, maxEntries int) *State {
	t.Helper()
	store, err := kvstore.NewCluster(3, nil)
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	t.Cleanup(store.Close)
	cs := store.NewSession(kvstore.SessionOptions{MaxEntries: maxEntries})
	t.Cleanup(func() { cs.Close() })
	return NewState("C", "m", cs, nil)
}

// TestStateGetBytesCacheHitAllocsNothing pins a field read that hits the
// session cache at zero allocations: the key is built in a pooled buffer
// and only borrowed by the store.
func TestStateGetBytesCacheHitAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st := newSessionState(t, 0)
	if err := st.PutString("field", "value"); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if v, err := st.GetBytes("field"); err != nil || string(v) != "value" {
			t.Fatalf("GetBytes = %q, %v", v, err)
		}
	}
	read() // the miss that installs the entry
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Fatalf("GetBytes on a cache hit = %v allocs, want 0", n)
	}
}

// TestStateBorrowedKeysConcurrentReads runs 16 goroutines through one State
// on a ClusterSession, each reading its own fields. Every read's key lives
// in a pooled buffer that the next read reuses, so a cache that kept the
// borrowed key instead of a copy would file entries under bytes that later
// spell another field's key: a read would return another field's value, or
// a value its invalidation failed to remove. A cache smaller than the
// keyspace keeps misses and evictions interleaved with hits, and a second
// round runs after writes invalidated every third field.
func TestStateBorrowedKeysConcurrentReads(t *testing.T) {
	st := newSessionState(t, 64)
	const workers, fields = 16, 32
	field := func(w, f int) string { return fmt.Sprintf("w%02d-f%02d", w, f) }
	value := func(w, f, round int) string { return fmt.Sprintf("%s=%d", field(w, f), round) }
	for w := range workers {
		for f := range fields {
			if err := st.PutString(field(w, f), value(w, f, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll := func(round func(f int) int) {
		t.Helper()
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := range 4 {
					for i := range fields {
						f := (i*7 + pass*5 + w) % fields
						got, err := st.GetString(field(w, f))
						if want := value(w, f, round(f)); err != nil || got != want {
							t.Errorf("pass %d: %s = %q, %v; want %q", pass, field(w, f), got, err, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	readAll(func(int) int { return 0 })
	for w := range workers {
		for f := 0; f < fields; f += 3 {
			if err := st.PutString(field(w, f), value(w, f, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	readAll(func(f int) int {
		if f%3 == 0 {
			return 1
		}
		return 0
	})
}
