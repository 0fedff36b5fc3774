package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosResizeUnderLoad drives continuous invocations while the pool is
// resized randomly between its bounds. Invariants:
//   - no invocation is lost or fails (drain+redirect make resizing
//     invisible to clients);
//   - the shared counter equals the number of acknowledged adds (no
//     duplicated or dropped execution);
//   - slices are fully accounted for at the end.
func TestChaosResizeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	env := newTestEnv(t, 12)
	pool := newTestPool(t, env, Config{
		Name: "chaos", MinPoolSize: 2, MaxPoolSize: 8,
		BurstInterval: time.Hour,
	})
	stub, err := LookupStub("chaos", env.regCli)
	if err != nil {
		t.Fatalf("stub: %v", err)
	}
	defer stub.Close()

	const workers = 6
	var acked atomic.Int64
	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1}); err != nil {
					failures.Add(1)
					return
				}
				acked.Add(1)
			}
		}()
	}

	// Random resizes for ~1.5 s.
	rng := rand.New(rand.NewSource(42)) //nolint:gosec // deterministic chaos
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		delta := rng.Intn(5) - 2 // -2..+2
		if delta != 0 {
			_ = pool.Resize(delta)
		}
		pool.BroadcastNow()
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d invocations failed during resizing", f)
	}
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != acked.Load() {
		t.Fatalf("counter = %d, acked = %d (lost or duplicated executions)", rep.Total, acked.Load())
	}
	if got := pool.Size(); got < 2 || got > 8 {
		t.Fatalf("pool size %d outside bounds", got)
	}
	if env.cluster.InUse() != pool.Size() {
		t.Fatalf("slice accounting: %d in use vs %d members", env.cluster.InUse(), pool.Size())
	}
}
