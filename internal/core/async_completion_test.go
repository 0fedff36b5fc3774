package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
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

// newEchoPool deploys a pool of two members serving obj (the smallest pool
// an elastic class may have) and returns its endpoints.
func newEchoPool(t *testing.T, obj Object) []string {
	t.Helper()
	env := newTestEnv(t, 3)
	pool, err := NewPool(Config{
		Name: "echo", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true, DrainTimeout: time.Second,
	}, func(*MemberContext) (Object, error) { return obj, nil }, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool.Endpoints()
}

// newEchoStub deploys a pool of two blockingEcho members and returns a
// stub for it.
func newEchoStub(t *testing.T, opts ...StubOption) (stub *Stub, obj *blockingEcho) {
	t.Helper()
	obj = &blockingEcho{entered: new(atomic.Int64), release: make(chan struct{})}
	eps := newEchoPool(t, obj)
	// Registered after the pool's cleanup, so it runs first: the pool
	// closes with no handler left blocked.
	t.Cleanup(func() {
		select {
		case <-obj.release:
		default:
			close(obj.release)
		}
	})
	return newStub(t, eps, opts...), obj
}

// newStub returns a stub for the "echo" pool at eps, closed at cleanup.
func newStub(t *testing.T, eps []string, opts ...StubOption) *Stub {
	t.Helper()
	stub, err := NewStub("echo", eps, opts...)
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	t.Cleanup(func() { stub.Close() })
	return stub
}

// holdConns invokes through stub until it holds a connection to every
// member, so each InvokeAsync after it starts its first attempt on the
// caller's goroutine.
func holdConns(t *testing.T, stub *Stub) {
	t.Helper()
	waitUntil(t, "a connection to every member", func() bool {
		if _, err := stub.Invoke("Echo", nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		for _, addr := range stub.Members() {
			if stub.conns.Cached(addr) == nil {
				return false
			}
		}
		return true
	})
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
// in the handler, a 33rd completes while they stay blocked — it waits
// neither behind them on the connection nor for a member worker.
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

// TestInvokeAsyncHoldsNoGoroutine: an asynchronous invocation in flight on
// a connection the stub holds is a pending entry on that connection, not a
// goroutine. With 200 of them blocked in the handler no goroutine runs the
// stub's code, and Close fails all 200 with ErrPoolClosed.
func TestInvokeAsyncHoldsNoGoroutine(t *testing.T) {
	stub, obj := newEchoStub(t)
	holdConns(t, stub)
	blocked := blockAsync(t, stub, obj, 200)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("core.(*Stub)")) || bytes.Contains(g, []byte("core.(*invocation)")) {
			t.Fatalf("a goroutine runs the stub's code under blocked async invocations:\n%s", g)
		}
	}
	stub.Close()
	for i, b := range blocked {
		if err := b.Err(); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("blocked invocation %d after Close = %v, want ErrPoolClosed", i, err)
		}
	}
	if err := stub.InvokeAsync("Echo", nil).Err(); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("invocation after Close = %v, want ErrPoolClosed", err)
	}
}

// TestAsyncCallDoneRearms: Done's channel is never closed, yet after
// completion every call to Done makes it ready for one receive, and a
// receive before completion, or one never made, leaves nothing behind for
// the invocation that reuses the state.
func TestAsyncCallDoneRearms(t *testing.T) {
	stub, obj := newEchoStub(t)
	holdConns(t, stub)

	ac := stub.InvokeAsync("Echo", []byte("twice"))
	<-ac.Done()
	<-ac.Done()
	if out, err := ac.Result(); err != nil || string(out) != "twice" {
		t.Fatalf("Result after two receives from Done = %q, %v", out, err)
	}

	// Err after a Done that was never received from: poll readiness
	// without receiving.
	ac = stub.InvokeAsync("Echo", []byte("unreceived"))
	waitUntil(t, "completion", func() bool { return len(ac.Done()) == 1 })
	if err := ac.Err(); err != nil {
		t.Fatalf("Err after an unreceived Done: %v", err)
	}

	// The next invocation, likely on the recycled state, is blocked in its
	// handler: its Done is not ready, and a select that finds so consumes
	// nothing.
	next := stub.InvokeAsync("Block", []byte("blocked"))
	if next.inv != ac.inv {
		t.Log("the blocked invocation did not reuse the spent state")
	}
	waitUntil(t, "the blocked handler", func() bool { return obj.entered.Load() == 1 })
	for range 3 {
		select {
		case <-next.Done():
			t.Fatal("Done is ready while the handler is blocked")
		default:
		}
	}
	close(obj.release)
	select {
	case <-next.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not ready after the handler returned")
	}
	if out, err := next.Result(); err != nil || string(out) != "blocked" {
		t.Fatalf("released invocation = %q, %v", out, err)
	}
}

// TestInvokeAsyncAllocCeiling pins the process-wide allocation cost of one
// asynchronous invocation against a two-member pool at zero: the recycled
// state keeps its done channel, and the read loop completes it.
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
	for range 200 { // connections, route table, arena and pooled states
		call()
	}
	allocs := testing.AllocsPerRun(2000, call)
	t.Logf("InvokeAsync+Result: %.2f allocs/op", allocs)
	if allocs != 0 {
		t.Fatalf("InvokeAsync+Result = %v allocs/op, want 0", allocs)
	}
}

// sleepyEcho echoes its argument after waiting arg[0] × 25µs. It yields
// in a loop instead of calling time.Sleep, whose wakeups can come a
// millisecond late, far beyond the budgets it races.
type sleepyEcho struct{}

func (sleepyEcho) HandleCall(_ string, arg []byte) ([]byte, error) {
	if len(arg) > 0 {
		for end := time.Now().Add(time.Duration(arg[0]) * 25 * time.Microsecond); time.Now().Before(end); {
			runtime.Gosched()
		}
	}
	return arg, nil
}

// TestAsyncTimerRaceStress: budgets of 100–300µs against a handler that
// waits 0–200µs, so an attempt's reply and the budget timer of its
// recycled pending call race on most invocations. Every outcome must be
// the invocation's own reply or a timeout (ErrTimeout, or ErrUnavailable
// once the budget is spent), and each state recycled after such a race
// must serve a probe with the default budget cleanly: neither ready before
// its 2ms handler can have returned nor timed out by a timer left over
// from the race. `make async-recycle` runs it under the race detector.
func TestAsyncTimerRaceStress(t *testing.T) {
	eps := newEchoPool(t, sleepyEcho{})
	var tight []*Stub
	for _, budget := range []time.Duration{100, 200, 300} {
		tight = append(tight, newStub(t, eps, WithCallTimeout(budget*time.Microsecond)))
	}
	probe := newStub(t, eps)
	holdConns(t, probe)
	const callers, window, rounds = 2, 4, 160
	var timeouts atomic.Int64
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			futures := make([]AsyncCall, window)
			reqs := make([][]byte, window)
			for r := range rounds {
				stub := tight[(g+r)%len(tight)]
				for i := range futures {
					delay := byte((g*window + r + i) % 9) // 0–200µs
					reqs[i] = binary.LittleEndian.AppendUint32([]byte{delay}, uint32(g<<16|r<<8|i))
					futures[i] = stub.InvokeAsync("Echo", reqs[i])
				}
				for i, f := range futures {
					out, err := f.Result()
					switch {
					case err == nil && bytes.Equal(out, reqs[i]):
						transport.ReleasePayload(out)
					case err != nil && (errors.Is(err, transport.ErrTimeout) || errors.Is(err, ErrUnavailable)):
						timeouts.Add(1)
					default:
						t.Errorf("caller %d: reply %x, %v to request %x", g, out, err, reqs[i])
						return
					}
				}
				// Likely on a state just recycled from a raced invocation.
				req := []byte{80, byte(g), byte(r)} // 2ms
				t0 := time.Now()
				ac := probe.InvokeAsync("Echo", req)
				select {
				case <-ac.Done():
					if time.Since(t0) < 2*time.Millisecond {
						t.Errorf("caller %d: probe ready before its handler returned", g)
						return
					}
				default:
				}
				if out, err := ac.Result(); err != nil || !bytes.Equal(out, req) {
					t.Errorf("caller %d: probe = %x, %v", g, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d of %d invocations timed out", timeouts.Load(), callers*window*rounds)
}
