package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// startGated starts a server whose handler parks on release, with a tiny
// admission controller: one execution slot and a queue of queueCap. The
// returned counter reports handler executions.
func startGated(t *testing.T, queueCap int) (srv *Server, executed *atomic.Int64, release chan struct{}) {
	t.Helper()
	executed = new(atomic.Int64)
	release = make(chan struct{})
	srv, err := ServeOpts("127.0.0.1:0", func(req *Request) ([]byte, error) {
		executed.Add(1)
		if req.Method == "Hold" {
			<-release
		}
		return req.Payload, nil
	}, ServerOptions{MaxConcurrent: 1, MaxQueue: queueCap})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Close()
	})
	return srv, executed, release
}

// blockWorker occupies the server's single execution slot and returns once
// the handler is provably running (its execution is counted).
func blockWorker(t *testing.T, c *Client, executed *atomic.Int64) *Call {
	t.Helper()
	ca := c.Go("svc", "Hold", nil)
	for deadline := time.Now().Add(5 * time.Second); executed.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached the handler")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return ca
}

// TestAdmissionShedsWithOverloadStatus: with the gate and the queue full,
// further two-way requests are refused with a distinct overload error — the
// handler never runs for them, the connection survives, and the queued work
// still completes once the slot frees up.
func TestAdmissionShedsWithOverloadStatus(t *testing.T) {
	srv, executed, release := startGated(t, 1)
	c := dial(t, srv.Addr())

	blocker := blockWorker(t, c, executed)
	queued := c.Go("svc", "Echo", []byte("queued")) // fills the queue

	// Gate busy + queue full: this one must be shed, quickly and distinctly.
	start := time.Now()
	_, err := c.Call("svc", "Echo", []byte("shed"), 5*time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed reply took %v; shedding must not wait out the queue", d)
	}
	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("Stats().Shed = %d, want 1", got)
	}
	if got := executed.Load(); got != 1 {
		t.Fatalf("handler ran %d times while shedding, want only the blocker", got)
	}

	// The member is saturated, not broken: releasing the slot drains the
	// queue and the same connection keeps serving.
	close(release)
	if out, err := queued.Wait(5 * time.Second); err != nil || string(out) != "queued" {
		t.Fatalf("queued call after release: %q, %v", out, err)
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	blocker.Release()
	if out, err := c.Call("svc", "Echo", []byte("after"), 5*time.Second); err != nil || string(out) != "after" {
		t.Fatalf("call after shed: %q, %v", out, err)
	}
}

// TestExpiredInQueueNeverRunsHandler: requests whose budget runs out while
// they wait in the admission queue are dropped at dequeue — the handler is
// never invoked for them and the caller sees a distinct expiry error.
func TestExpiredInQueueNeverRunsHandler(t *testing.T) {
	srv, executed, release := startGated(t, 16)
	c := dial(t, srv.Addr())

	blocker := blockWorker(t, c, executed)

	// Queue a wave with a budget far shorter than the time the slot stays
	// blocked; every one of them must expire in queue.
	const waves = 6
	calls := make([]*Call, waves)
	for i := range calls {
		calls[i] = c.goBudget("svc", "Echo", []byte("doomed"), 50*time.Millisecond, false)
	}
	time.Sleep(150 * time.Millisecond) // budgets are now long gone
	close(release)

	for i, ca := range calls {
		if _, err := ca.Wait(5 * time.Second); !errors.Is(err, ErrExpired) || !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d err = %v, want ErrExpired and ErrTimeout", i, err)
		}
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	blocker.Release()
	if got := executed.Load(); got != 1 {
		t.Fatalf("handler executed %d requests, want only the blocker (expired work must never run)", got)
	}
	if got := srv.Stats().Expired; got != waves {
		t.Fatalf("Stats().Expired = %d, want %d", got, waves)
	}

	// A fresh call with a healthy budget sails through.
	if out, err := c.Call("svc", "Echo", []byte("alive"), 5*time.Second); err != nil || string(out) != "alive" {
		t.Fatalf("call after expiry storm: %q, %v", out, err)
	}
}

// TestExpiredReplyIsATimeout: a server-side budget expiry is a timeout as
// far as the caller can tell, so code that matches ErrTimeout treats it as
// one; ErrExpired still tells it the handler provably never ran. An
// overload refusal is neither.
func TestExpiredReplyIsATimeout(t *testing.T) {
	ca := &Call{service: "svc", method: "M", res: callResult{status: statusExpired}}
	if err := ca.err(); !errors.Is(err, ErrExpired) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired reply err = %v, want both ErrExpired and ErrTimeout", err)
	}
	ca.res.status = statusOverload
	if err := ca.err(); !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrExpired) {
		t.Fatalf("overload reply err = %v, want ErrOverloaded only", err)
	}
}

// TestOneWayDroppedWhenSaturated: one-way frames pass through the same
// admission gate; when it is full they are dropped — counted as shed, never
// parked on an unbounded goroutine, never executed later.
func TestOneWayDroppedWhenSaturated(t *testing.T) {
	srv, executed, release := startGated(t, 1)
	c := dial(t, srv.Addr())

	blocker := blockWorker(t, c, executed)
	if err := c.OneWay("svc", "Echo", []byte("queued")); err != nil {
		t.Fatalf("OneWay into free queue slot: %v", err)
	}

	// Queue full: these are dropped server-side; the submission itself
	// succeeds (one-way has no reply to carry a refusal).
	const dropped = 8
	for i := 0; i < dropped; i++ {
		if err := c.OneWay("svc", "Echo", nil); err != nil {
			t.Fatalf("OneWay %d: %v", i, err)
		}
	}
	// The drop is synchronous with the read loop; an Echo round-trip after
	// the one-way frames would deadlock here (single slot is blocked), so
	// poll the counter instead.
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().Shed < dropped; {
		if time.Now().After(deadline) {
			t.Fatalf("Stats().Shed = %d, want %d", srv.Stats().Shed, dropped)
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	blocker.Release()
	// Exactly the blocker and the one queued one-way run — the dropped ones
	// must never execute, even now that the slot is free.
	for deadline := time.Now().Add(5 * time.Second); executed.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("queued one-way never executed (executed = %d)", executed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a dropped one-way would surface here
	if got := executed.Load(); got != 2 {
		t.Fatalf("executed = %d, want 2 (blocker + queued one-way only)", got)
	}
}

// TestBudgetReachesHandler: the remaining-budget field survives the wire on
// both the flushed (Call) and the held (future) write path, anchored as a
// server-side deadline.
func TestBudgetReachesHandler(t *testing.T) {
	type seen struct {
		budget   time.Duration
		deadline time.Time
	}
	ch := make(chan seen, 4)
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		ch <- seen{budget: req.Budget, deadline: req.Deadline}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dial(t, srv.Addr())
	check := func(label string, hold bool) {
		t.Helper()
		call := func(budget time.Duration) error {
			_, err := c.goBudget("svc", "M", nil, budget, hold).Wait(budget)
			return err
		}
		if err := call(1500 * time.Millisecond); err != nil {
			t.Fatalf("%s Call: %v", label, err)
		}
		got := <-ch
		if got.budget <= 0 || got.budget > 1500*time.Millisecond {
			t.Fatalf("%s budget = %v, want in (0, 1.5s]", label, got.budget)
		}
		if got.deadline.IsZero() {
			t.Fatalf("%s deadline not anchored", label)
		}
		// No budget requested -> none on the wire.
		if err := call(0); err != nil {
			t.Fatalf("%s unbounded Call: %v", label, err)
		}
		if got := <-ch; got.budget != 0 || !got.deadline.IsZero() {
			t.Fatalf("%s unbounded call carried budget %v deadline %v", label, got.budget, got.deadline)
		}
	}
	check("flushed", false)
	check("held", true)
}

// TestExpressBypassesSaturatedAdmission: a method on the express lane runs
// even when the gate and the queue are both full of parked work — the lane
// exists for cheap control calls that unblock those very workers — while
// ordinary methods still shed. Without the bypass, a handler waiting on a
// peer's follow-up call deadlocks against the pool it is clogging.
func TestExpressBypassesSaturatedAdmission(t *testing.T) {
	executed := new(atomic.Int64)
	release := make(chan struct{})
	srv, err := ServeOpts("127.0.0.1:0", func(req *Request) ([]byte, error) {
		executed.Add(1)
		if req.Method == "Hold" {
			<-release
		}
		return req.Payload, nil
	}, ServerOptions{MaxConcurrent: 1, MaxQueue: 1, Express: func(service, method string) bool {
		return method == "Ping"
	}})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Close()
	})
	c := dial(t, srv.Addr())

	blocker := blockWorker(t, c, executed)
	// Second Hold fills the queue (requests on one connection are ingested
	// in order, so it is parked before anything sent after it).
	queued := c.Go("svc", "Hold", nil)
	// An ordinary method is refused — proof the admission path is saturated.
	if _, err := c.Call("svc", "Probe", nil, 2*time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("probe through full admission: %v, want ErrOverloaded", err)
	}
	// The express method sails past the jam.
	out, err := c.Call("svc", "Ping", []byte("pong"), 2*time.Second)
	if err != nil {
		t.Fatalf("express call under saturation: %v", err)
	}
	if string(out) != "pong" {
		t.Fatalf("express reply drifted: %q", out)
	}
	close(release)
	if _, err := blocker.Wait(5 * time.Second); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if _, err := queued.Wait(5 * time.Second); err != nil {
		t.Fatalf("queued: %v", err)
	}
}
