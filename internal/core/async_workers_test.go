package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// blockingEcho echoes its argument; "Block" first parks until release is
// closed, counting itself in entered.
type blockingEcho struct {
	entered *atomic.Int64
	release chan struct{}
}

func (o *blockingEcho) HandleCall(method string, arg []byte) ([]byte, error) {
	if method == "Block" {
		o.entered.Add(1)
		<-o.release
	}
	return arg, nil
}

// newEchoStub deploys a pool of two blockingEcho members (the smallest
// pool an elastic class may have) and returns a stub for it.
func newEchoStub(t *testing.T) (stub *Stub, obj *blockingEcho) {
	t.Helper()
	env := newTestEnv(t, 3)
	obj = &blockingEcho{entered: new(atomic.Int64), release: make(chan struct{})}
	pool, err := NewPool(Config{
		Name: "echo", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true, DrainTimeout: time.Second,
	}, func(*MemberContext) (Object, error) { return obj, nil }, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-obj.release:
		default:
			close(obj.release)
		}
		pool.Close()
	})
	if stub, err = NewStub("echo", pool.Endpoints()); err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	t.Cleanup(func() { stub.Close() })
	return stub, obj
}

// blockAsync starts n asynchronous Block invocations and returns once every
// handler is running.
func blockAsync(t *testing.T, stub *Stub, obj *blockingEcho, n int) []AsyncCall {
	t.Helper()
	calls := make([]AsyncCall, n)
	for i := range calls {
		calls[i] = stub.InvokeAsync("Block", nil)
	}
	waitUntil(t, "blocked handlers", func() bool { return obj.entered.Load() == int64(n) })
	return calls
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInvokeAsyncNoHeadOfLineWait: with 32 asynchronous invocations blocked
// in the handler, a 33rd completes while they stay blocked — it neither
// waits for an async worker nor for a member worker.
func TestInvokeAsyncNoHeadOfLineWait(t *testing.T) {
	stub, obj := newEchoStub(t)
	blocked := blockAsync(t, stub, obj, 32)
	ac := stub.InvokeAsync("Echo", []byte("33"))
	select {
	case <-ac.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("invocation 33 waited behind 32 blocked ones")
	}
	if out, err := ac.Result(); err != nil || string(out) != "33" {
		t.Fatalf("invocation 33 = %q, %v", out, err)
	}
	for _, b := range blocked {
		select {
		case <-b.Done():
			t.Fatal("a blocked invocation completed before release")
		default:
		}
	}
	close(obj.release)
	for _, b := range blocked {
		if err := b.Err(); err != nil {
			t.Fatalf("blocked invocation: %v", err)
		}
	}
}

// TestAsyncWorkersBoundedAndStoppedByClose: after a burst of 200
// concurrent blocking invocations completes, the async workers beyond
// maxIdleAsyncWorkers exit; Close ends the parked rest.
func TestAsyncWorkersBoundedAndStoppedByClose(t *testing.T) {
	stub, obj := newEchoStub(t)
	blocked := blockAsync(t, stub, obj, 200)
	if n := stub.asyncWorkers.Load(); n < 200 {
		t.Fatalf("%d live async workers under 200 blocked invocations", n)
	}
	close(obj.release)
	for _, b := range blocked {
		if err := b.Err(); err != nil {
			t.Fatalf("blocked invocation: %v", err)
		}
	}
	waitUntil(t, "burst workers to exit", func() bool {
		return stub.asyncWorkers.Load() <= maxIdleAsyncWorkers
	})
	// The parked workers still serve.
	if err := stub.InvokeAsync("Echo", nil).Err(); err != nil {
		t.Fatalf("invocation after burst: %v", err)
	}
	waitUntil(t, "workers to park", func() bool {
		return stub.asyncIdle.Load() == stub.asyncWorkers.Load()
	})
	if stub.asyncWorkers.Load() < 2 {
		t.Fatal("no parked workers left to test Close against")
	}
	stub.Close()
	waitUntil(t, "parked workers to exit after Close", func() bool {
		return stub.asyncWorkers.Load() == 0
	})
	// A late invocation fails fast and leaves no worker behind.
	if err := stub.InvokeAsync("Echo", nil).Err(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("invocation after Close = %v, want ErrPoolClosed", err)
	}
	waitUntil(t, "late worker to exit", func() bool { return stub.asyncWorkers.Load() == 0 })
}

// TestInvokeAsyncAllocCeiling pins the process-wide allocation cost of one
// asynchronous invocation against a two-member pool: the future's done
// channel, the one allocation its recycled state cannot avoid.
func TestInvokeAsyncAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	stub, _ := newEchoStub(t)
	payload := make([]byte, 64)
	call := func() {
		out, err := stub.InvokeAsync("Echo", payload).Result()
		if err != nil {
			t.Fatalf("InvokeAsync: %v", err)
		}
		transport.ReleasePayload(out)
	}
	for range 200 { // connection, route table, arena and parked workers
		call()
	}
	allocs := testing.AllocsPerRun(2000, call)
	t.Logf("InvokeAsync+Result: %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Fatalf("InvokeAsync+Result = %v allocs/op, want <= 1", allocs)
	}
}
