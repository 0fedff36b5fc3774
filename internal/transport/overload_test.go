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
func blockWorker(t *testing.T, c *Client, executed *atomic.Int64) <-chan reply {
	t.Helper()
	ca := goCall(c, "svc", "Hold", nil, 0)
	for deadline := time.Now().Add(5 * time.Second); executed.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached the handler")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return ca
}

// queueOne starts a call that waits in the admission queue behind the
// blocked worker and returns once it is there, so requests sent after it
// find the queue one slot fuller.
func queueOne(t *testing.T, srv *Server, c *Client, method string, payload []byte) <-chan reply {
	t.Helper()
	ca := goCall(c, "svc", method, payload, 0)
	waitFor(t, "a queued request", func() bool { return len(srv.work) == 1 })
	return ca
}

// callWithBudget is Call with a wire budget shorter than the caller's
// wait, so the caller outlasts its budget and receives the server's
// expiry verdict (Start arms its own timer at the budget and gives up
// first). The call is registered unbudgeted and its frame written by hand.
func callWithBudget(c *Client, service, method string, payload []byte, budget, wait time.Duration) ([]byte, error) {
	done := make(waiter, 1)
	p := getPending()
	seq := c.seq.Add(1)
	p.c, p.seq, p.done, p.service, p.method = c, seq, done, service, method
	p.left.Store(1)
	c.mu.Lock()
	c.pending[seq] = p
	c.mu.Unlock()
	if err := c.w.writeRequest(frameRequest, seq, 0, budgetMicros(budget), service, method, payload); err != nil {
		return nil, err
	}
	select {
	case res := <-done:
		return res.payload, res.err
	case <-time.After(wait):
		return nil, ErrTimeout
	}
}

// TestAdmissionShedsWithOverloadStatus: with the gate and the queue full,
// further two-way requests are refused with a distinct overload error — the
// handler never runs for them, the connection survives, and the queued work
// still completes once the slot frees up.
func TestAdmissionShedsWithOverloadStatus(t *testing.T) {
	srv, executed, release := startGated(t, 1)
	c := dial(t, srv.Addr())

	blocker := blockWorker(t, c, executed)
	queued := queueOne(t, srv, c, "Echo", []byte("queued")) // fills the queue

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
	if r := <-queued; r.err != nil || string(r.out) != "queued" {
		t.Fatalf("queued call after release: %q, %v", r.out, r.err)
	}
	if r := <-blocker; r.err != nil {
		t.Fatalf("blocker: %v", r.err)
	}
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
	calls := make([]chan error, waves)
	for i := range calls {
		calls[i] = make(chan error, 1)
		go func(ch chan error) {
			_, err := callWithBudget(c, "svc", "Echo", []byte("doomed"), 50*time.Millisecond, 5*time.Second)
			ch <- err
		}(calls[i])
	}
	waitFor(t, "the wave to queue", func() bool { return len(srv.work) == waves })
	time.Sleep(150 * time.Millisecond) // budgets are now long gone
	close(release)

	for i, ch := range calls {
		if err := <-ch; !errors.Is(err, ErrExpired) || !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d err = %v, want ErrExpired and ErrTimeout", i, err)
		}
	}
	if r := <-blocker; r.err != nil {
		t.Fatalf("blocker: %v", r.err)
	}
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
	res := callResult{status: statusExpired}
	if err := res.asError("svc", "M"); !errors.Is(err, ErrExpired) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired reply err = %v, want both ErrExpired and ErrTimeout", err)
	}
	res.status = statusOverload
	if err := res.asError("svc", "M"); !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrTimeout) || errors.Is(err, ErrExpired) {
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
	if r := <-blocker; r.err != nil {
		t.Fatalf("blocker: %v", r.err)
	}
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

// TestBudgetReachesHandler: the remaining-budget field survives the wire,
// anchored as a server-side deadline.
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
	if _, err := c.Call("svc", "M", nil, 1500*time.Millisecond); err != nil {
		t.Fatalf("Call: %v", err)
	}
	got := <-ch
	if got.budget <= 0 || got.budget > 1500*time.Millisecond {
		t.Fatalf("budget = %v, want in (0, 1.5s]", got.budget)
	}
	if got.deadline.IsZero() {
		t.Fatal("deadline not anchored")
	}
	// No budget requested -> none on the wire.
	if _, err := c.Call("svc", "M", nil, 0); err != nil {
		t.Fatalf("unbounded Call: %v", err)
	}
	if got := <-ch; got.budget != 0 || !got.deadline.IsZero() {
		t.Fatalf("unbounded call carried budget %v deadline %v", got.budget, got.deadline)
	}
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
	// Second Hold fills the queue.
	queued := queueOne(t, srv, c, "Hold", nil)
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
	if r := <-blocker; r.err != nil {
		t.Fatalf("blocker: %v", r.err)
	}
	if r := <-queued; r.err != nil {
		t.Fatalf("queued: %v", r.err)
	}
}
