package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/simclock"
)

func mustStoreDur(t *testing.T, clock simclock.Clock, opts DurOptions) *Store {
	t.Helper()
	s, err := NewStoreDur(clock, opts)
	if err != nil {
		t.Fatalf("NewStoreDur: %v", err)
	}
	return s
}

func TestDurRecoveryPreservesData(t *testing.T) {
	dir := t.TempDir()
	s := mustStoreDur(t, nil, DurOptions{Dir: dir})
	s.Put("a", []byte("one"))
	s.Put("a", []byte("two")) // version 2
	s.Put("b", []byte("x"))
	s.Delete("b")
	if _, _, err := s.CompareAndSwap("c", []byte("cas"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddInt64("n", 41); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddInt64("n", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustStoreDur(t, nil, DurOptions{Dir: dir})
	defer r.Close()
	got, err := r.Get("a")
	if err != nil || string(got.Value) != "two" || got.Version != 2 {
		t.Fatalf(`recovered Get("a") = %+v, %v; want value "two" version 2`, got, err)
	}
	if _, err := r.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
	if got, _ := r.Get("c"); string(got.Value) != "cas" {
		t.Fatalf(`recovered Get("c") = %+v`, got)
	}
	if v, _ := r.AddInt64("n", 0); v != 42 {
		t.Fatalf("recovered counter = %d, want 42", v)
	}
	// The deletion tombstone's version must survive too: a re-create
	// continues above it.
	if v, _, err := r.CompareAndSwap("b", []byte("re"), 0); err != nil || v != 3 {
		t.Fatalf("re-create over recovered tombstone: v=%d err=%v, want 3", v, err)
	}
}

func TestDurRecoveryPreservesLocks(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	clock := simclock.NewSim(start)
	dir := t.TempDir()
	s := mustStoreDur(t, clock, DurOptions{Dir: dir})
	if err := s.TryLock("held", "alice", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.TryLock("released", "bob", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Unlock("released", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	clock.Advance(5 * time.Second)
	r := mustStoreDur(t, clock, DurOptions{Dir: dir})
	defer r.Close()
	if owner, held := r.LockOwner("held"); !held || owner != "alice" {
		t.Fatalf("recovered lock owner = %q/%v, want alice/held", owner, held)
	}
	// Exact expiry preserved: 25s of lease remain, an intruder fails now
	// and succeeds after the original expiry passes.
	if err := r.TryLock("held", "mallory", time.Second); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("intruder on recovered lease: %v, want ErrLockHeld", err)
	}
	info, ok := r.LockSnapshot("held")
	if !ok || !info.Expires.Equal(start.Add(30*time.Second)) {
		t.Fatalf("recovered expiry = %v, want %v", info.Expires, start.Add(30*time.Second))
	}
	// A released lock must not come back held.
	if _, held := r.LockOwner("released"); held {
		t.Fatal("released lock resurrected as held")
	}
	if err := r.TryLock("released", "carol", time.Second); err != nil {
		t.Fatalf("acquiring released lock after recovery: %v", err)
	}
}

func TestDurCrashKeepsAckedDropsBuffered(t *testing.T) {
	dir := t.TempDir()
	s := mustStoreDur(t, nil, DurOptions{Dir: dir, GroupCommit: true})
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%03d", i), []byte("v"))
	}
	// Every Put above returned, i.e. was acked: all must survive a crash.
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := mustStoreDur(t, nil, DurOptions{Dir: dir})
	defer r.Close()
	for i := 0; i < 100; i++ {
		if _, err := r.Get(fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatalf("acked write k%03d lost after crash: %v", i, err)
		}
	}
}

func TestDurSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustStoreDur(t, nil, DurOptions{Dir: dir, SnapshotEvery: 64})
	for i := 0; i < 500; i++ {
		s.Put(fmt.Sprintf("k%03d", i%50), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustStoreDur(t, nil, DurOptions{Dir: dir})
	defer r.Close()
	if n := r.Len(); n != 50 {
		t.Fatalf("recovered %d keys, want 50", n)
	}
	// The newest value of each key won.
	got, err := r.Get("k049")
	if err != nil || string(got.Value) != "v499" {
		t.Fatalf("recovered k049 = %+v, %v; want v499", got, err)
	}
}

func TestDurConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s := mustStoreDur(t, nil, DurOptions{Dir: dir, GroupCommit: true})
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Put(fmt.Sprintf("w%d-%03d", w, i), []byte("v"))
			}
		}(w)
	}
	wg.Wait()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	r := mustStoreDur(t, nil, DurOptions{Dir: dir})
	defer r.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			if _, err := r.Get(fmt.Sprintf("w%d-%03d", w, i)); err != nil {
				t.Fatalf("lost acked write w%d-%03d: %v", w, i, err)
			}
		}
	}
}

// TestTombstoneGCBoundsSteadyState is the regression test for the
// unbounded-growth bug: before tombstone GC, a sustained put/delete loop
// left one tombstone per key forever.
func TestTombstoneGCBoundsSteadyState(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1_000_000, 0))
	s := NewStore(clock)
	s.tombTTL = 10 * time.Second // shorter than defaultTombTTL, for tests only
	const cycles = 20000
	for i := 0; i < cycles; i++ {
		key := fmt.Sprintf("churn-%05d", i)
		s.Put(key, []byte("v"))
		s.Delete(key)
		clock.Advance(10 * time.Millisecond)
	}
	s.mu.Lock()
	n := len(s.data)
	s.mu.Unlock()
	// 10s TTL at one tombstone per 10ms is ~1000 live tombstones; the
	// inline sweep runs every gcEvery mutations, so allow that much slack.
	if limit := 1000 + 2*gcEvery; n > limit {
		t.Fatalf("steady-state entry count %d exceeds %d: tombstones not GCed", n, limit)
	}
}

// TestLockTombstoneGC is the lock-table counterpart: release tombstones
// and long-expired leases must be pruned past the horizon.
func TestLockTombstoneGC(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1_000_000, 0))
	s := NewStore(clock)
	s.tombTTL = 10 * time.Second // shorter than defaultTombTTL, for tests only
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("lock-%05d", i)
		if err := s.TryLock(name, "w", time.Second); err != nil {
			t.Fatal(err)
		}
		if err := s.Unlock(name, "w"); err != nil {
			t.Fatal(err)
		}
		clock.Advance(10 * time.Millisecond)
	}
	s.CompactTombstones()
	s.mu.Lock()
	n := len(s.locks)
	s.mu.Unlock()
	if limit := 1000 + gcEvery; n > limit {
		t.Fatalf("lock table holds %d entries at steady state, want <= %d", n, limit)
	}
}

// TestImportLocksSkipsExpiredLeases: an already-expired lease must be
// installed as a release tombstone (sequence preserved), not as a held
// lease occupying the table.
func TestImportLocksSkipsExpiredLeases(t *testing.T) {
	clock := simclock.NewSim(time.Unix(1_000_000, 0))
	dst := NewStore(clock)
	dst.ImportLocks(map[string]LockInfo{
		"stale": {Owner: "ghost", Expires: clock.Now().Add(-time.Minute), Seq: 7},
		"live":  {Owner: "alice", Expires: clock.Now().Add(time.Minute), Seq: 9},
	})
	if owner, held := dst.LockOwner("stale"); held {
		t.Fatalf("expired lease imported as held by %q", owner)
	}
	dst.mu.Lock()
	st := dst.locks["stale"]
	dst.mu.Unlock()
	if st.owner != "" || st.seq != 7 {
		t.Fatalf("expired lease state = %+v, want release tombstone with seq 7", st)
	}
	// The tombstone's sequence still gates: a staler replicated update
	// must not win.
	dst.ImportLocks(map[string]LockInfo{
		"stale": {Owner: "older", Expires: clock.Now().Add(time.Hour), Seq: 5},
	})
	if _, held := dst.LockOwner("stale"); held {
		t.Fatal("staler update won over the expired lease's tombstone")
	}
	if owner, held := dst.LockOwner("live"); !held || owner != "alice" {
		t.Fatalf("live lease import = %q/%v, want alice/held", owner, held)
	}
}

// TestExportDoesNotStallWrites: a large export must not hold the store
// mutex end to end — a concurrent Put admitted mid-export completes even
// though the exporter is paused between chunks.
func TestExportDoesNotStallWrites(t *testing.T) {
	s := NewStore(nil)
	for i := 0; i < 4*exportChunkSize; i++ {
		s.Put(fmt.Sprintf("bulk-%05d", i), []byte("v"))
	}
	pauses := 0
	done := make(chan struct{})
	exportPause = func() {
		if pauses == 0 {
			go func() {
				s.Put("mid-export", []byte("v"))
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("Put stalled behind a running export")
			}
		}
		pauses++
	}
	defer func() { exportPause = nil }()
	out := s.Export(nil)
	if pauses == 0 {
		t.Fatal("export took no chunk pauses; chunking regressed")
	}
	if len(out) < 4*exportChunkSize {
		t.Fatalf("export returned %d entries, want >= %d", len(out), 4*exportChunkSize)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("concurrent Put never completed")
	}
}

// TestExportLocksDoesNotStallWrites is the lock-table counterpart.
func TestExportLocksDoesNotStallWrites(t *testing.T) {
	s := NewStore(nil)
	for i := 0; i < 2*exportChunkSize; i++ {
		if err := s.TryLock(fmt.Sprintf("bulk-%05d", i), "w", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	fired := false
	exportPause = func() {
		if !fired {
			fired = true
			go func() {
				if err := s.TryLock("mid-export", "w", time.Minute); err != nil {
					t.Errorf("TryLock mid-export: %v", err)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Error("TryLock stalled behind a running lock export")
			}
		}
	}
	defer func() { exportPause = nil }()
	out := s.ExportLocks(nil)
	if !fired {
		t.Fatal("lock export took no chunk pauses; chunking regressed")
	}
	if len(out) < 2*exportChunkSize {
		t.Fatalf("lock export returned %d entries, want >= %d", len(out), 2*exportChunkSize)
	}
}

// TestDurServerCrashRestart drives the durability path through the
// network server: crash the whole server process-style, restart on the
// same directory, and the recovered server serves the old state.
func TestDurServerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServerDur("127.0.0.1:0", nil, DurOptions{Dir: dir, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := cli.TryLock("l", "owner", time.Minute); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := srv.Crash(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServerDur("127.0.0.1:0", nil, DurOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2, err := NewClient(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	v, err := cli2.Get("k")
	if err != nil || string(v.Value) != "v" {
		t.Fatalf("recovered Get = %+v, %v", v, err)
	}
	if err := cli2.TryLock("l", "intruder", time.Minute); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("recovered lock not held: %v", err)
	}
}

// TestSnapshotStatsSurfacesBackgroundFailure: a background snapshot that
// fails must not vanish silently — SnapshotStats reports the error and a
// cumulative count, and a later succeeding snapshot clears the error while
// the count sticks. (Regression: the background goroutine used to discard
// snapshotNow's error entirely.)
func TestSnapshotStatsSurfacesBackgroundFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s := mustStoreDur(t, nil, DurOptions{Dir: dir, SnapshotEvery: 2})
	defer s.Close()

	// Yank the directory out from under the snapshot writer: the WAL's
	// open segment descriptors keep commits working, but SaveSnapshot's
	// temp-file creation fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2")) // crosses SnapshotEvery: background snapshot fires
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fails, last := s.SnapshotStats(); fails >= 1 && last != nil {
			break
		}
		if time.Now().After(deadline) {
			fails, last := s.SnapshotStats()
			t.Fatalf("snapshot failure never surfaced: fails=%d last=%v", fails, last)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Restore the directory; the next triggered snapshot succeeds and
	// clears the error, while the failure count remains as history.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for {
		s.Put("c", []byte("3"))
		s.Put("d", []byte("4"))
		if fails, last := s.SnapshotStats(); last == nil && fails >= 1 {
			break
		}
		if time.Now().After(deadline) {
			fails, last := s.SnapshotStats()
			t.Fatalf("succeeding snapshot never cleared the error: fails=%d last=%v", fails, last)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Drain any snapshot still in flight: a late SaveSnapshot would
	// recreate files under the TempDir while the harness removes it.
	for s.dur.snapping.Load() {
		time.Sleep(time.Millisecond)
	}
}
