package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reply is the outcome of one Call run by goCall.
type reply struct {
	out []byte
	err error
}

// goCall runs c.Call on a goroutine of its own and delivers the outcome on
// the returned channel: how a test keeps a call in flight while it goes on.
func goCall(c *Client, service, method string, payload []byte, timeout time.Duration) <-chan reply {
	ch := make(chan reply, 1)
	go func() {
		out, err := c.Call(service, method, payload, timeout)
		ch <- reply{out, err}
	}()
	return ch
}

// TestGoPipelinesManyCalls keeps a window of 256 calls in flight on one
// connection, one goroutine each, and checks every response lands on the
// call that sent its marker.
func TestGoPipelinesManyCalls(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())

	const n = 256
	calls := make([]<-chan reply, n)
	for i := range calls {
		calls[i] = goCall(c, "svc", "Echo", []byte{byte(i), byte(i >> 8)}, 5*time.Second)
	}
	for i, ch := range calls {
		r := <-ch
		if r.err != nil {
			t.Fatalf("call %d: %v", i, r.err)
		}
		if !bytes.Equal(r.out, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("call %d got %v (responses crossed)", i, r.out)
		}
	}
}

// TestBatchedClientEndToEnd mixes calls and one-ways from many goroutines
// on one connection, so their frames coalesce in its write buffer: every
// response must still land on its own call, and every one-way must arrive.
func TestBatchedClientEndToEnd(t *testing.T) {
	var oneways atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		if req.Method == "Tick" {
			oneways.Add(1)
			return nil, nil
		}
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())

	const callers, per = 16, 64
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				marker := []byte{byte(g), byte(i)}
				if i%4 == 0 {
					if err := c.OneWay("svc", "Tick", marker); err != nil {
						errCh <- err
						return
					}
					continue
				}
				out, err := c.Call("svc", "Echo", marker, 10*time.Second)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(out, marker) {
					errCh <- fmt.Errorf("caller %d call %d: got %v (responses crossed)", g, i, out)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	want := int64(callers * per / 4)
	deadline := time.Now().Add(5 * time.Second)
	for oneways.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := oneways.Load(); got != want {
		t.Fatalf("server saw %d one-way invocations, want %d", got, want)
	}
}

// TestHeldWriteInheritsOwedFlush: a writer that skipped its flush because
// another was queued hands the flush to that writer even when it would
// hold, so an unheld frame never waits on the straggler timer; and a
// connection that only ever writes unheld frames never creates the timer.
func TestHeldWriteInheritsOwedFlush(t *testing.T) {
	var buf bytes.Buffer
	w := newConnWriter(&buf)
	w.waiters.Add(1) // a writer is queued behind the unheld frame
	if err := w.writeRequest(frameRequest, 1, 0, 0, "svc", "Sync", nil); err != nil {
		t.Fatal(err)
	}
	w.waiters.Add(-1)
	if buf.Len() != 0 || !w.owed {
		t.Fatalf("unheld frame with a queued writer: %d bytes flushed, owed=%v; want 0, true", buf.Len(), w.owed)
	}
	if err := w.writeResponse(2, statusOK, nil, "", nil, true); err != nil {
		t.Fatal(err)
	}
	if w.bw.Buffered() != 0 || w.owed || w.holding.Load() || w.straggler != nil {
		t.Fatalf("held frame did not settle the owed flush: buffered=%d owed=%v holding=%v timer=%v",
			w.bw.Buffered(), w.owed, w.holding.Load(), w.straggler != nil)
	}

	srv := startEcho(t)
	c := dial(t, srv.Addr())
	for i := 0; i < 20; i++ {
		if _, err := c.Call("svc", "Echo", []byte{byte(i)}, 5*time.Second); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	c.w.mu.Lock()
	timer := c.w.straggler
	c.w.mu.Unlock()
	if timer != nil {
		t.Fatal("synchronous calls created a straggler timer")
	}
}

// TestStragglerFlushesHeldResponse: while one handler on a connection stays
// blocked, the server holds every other response on that connection (more
// are due), so only the straggler timer puts them on the wire. Each must
// still arrive within a bound tied to stragglerBound, long before the
// blocked handler is released.
func TestStragglerFlushesHeldResponse(t *testing.T) {
	srv, entered, release := startBlocking(t)
	c := dial(t, srv.Addr())
	blocked := goCall(c, "svc", "Block", nil, 0)
	waitFor(t, "blocked handler", func() bool { return entered.Load() == 1 })

	// The fastest of a few round trips sheds host noise; a response the
	// timer never flushed would instead wait for the release below.
	const bound = 100 * stragglerBound
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := c.Call("svc", "Fast", []byte{byte(i)}, 5*time.Second); err != nil {
			t.Fatalf("call %d behind a blocked handler: %v", i, err)
		}
		fastest = min(fastest, time.Since(start))
	}
	if fastest > bound {
		t.Fatalf("fastest held response took %v, want <= %v (straggler bound %v)", fastest, bound, stragglerBound)
	}
	// The responses were held, not flushed outright: the server's writer
	// for this connection armed its straggler timer.
	srv.mu.Lock()
	var armed bool
	for st := range srv.states {
		st.w.mu.Lock()
		armed = armed || st.w.straggler != nil
		st.w.mu.Unlock()
	}
	srv.mu.Unlock()
	if !armed {
		t.Fatal("no response was held: the straggler path went unexercised")
	}
	close(release)
	if r := <-blocked; r.err != nil {
		t.Fatalf("blocked call: %v", r.err)
	}
}

// TestCloseFailsHeldFutures: closing a client while calls are blocked
// waiting for replies fails every one with ErrClosed instead of leaving it
// hanging.
func TestCloseFailsHeldFutures(t *testing.T) {
	srv, entered, _ := startBlocking(t) // no reply can race the Close
	c := dial(t, srv.Addr())

	calls := make([]<-chan reply, 8)
	for i := range calls {
		calls[i] = goCall(c, "svc", "Block", []byte{byte(i)}, 0)
	}
	waitFor(t, "blocked handlers", func() bool { return entered.Load() == int64(len(calls)) })
	c.Close()
	for i, ch := range calls {
		select {
		case r := <-ch:
			if !errors.Is(r.err, ErrClosed) {
				t.Fatalf("call %d err = %v, want ErrClosed", i, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d hung across Close", i)
		}
	}
}

// TestGoPayloadReusableOnReturn: OneWay has copied (or written) the payload
// by the time it returns, so a caller overwriting the buffer at once
// cannot corrupt the request — whether the frame fits the connection
// buffer, spills it, or takes the scatter-gather path.
func TestGoPayloadReusableOnReturn(t *testing.T) {
	sizes := []int{64, 12 << 10, 12 << 10, scatterGatherThreshold + 1, 64}
	got := make(chan error, len(sizes))
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		b := req.Payload
		i := int(b[0]) // byte j of request i is byte(i+j)
		if i >= len(sizes) || len(b) != sizes[i] {
			got <- fmt.Errorf("request of %d bytes tagged %d", len(b), i)
			return nil, nil
		}
		for j, v := range b {
			if v != byte(i+j) {
				got <- fmt.Errorf("request %d: byte %d = %#x, want %#x (payload reused before it was written)", i, j, v, byte(i+j))
				return nil, nil
			}
		}
		got <- nil
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())

	buf := make([]byte, scatterGatherThreshold+1)
	for i, n := range sizes {
		for j := range buf[:n] {
			buf[j] = byte(i + j)
		}
		if err := c.OneWay("svc", "Check", buf[:n]); err != nil {
			t.Fatalf("OneWay %d: %v", i, err)
		}
		for j := range buf {
			buf[j] = 0xEE // the caller reuses its buffer straight away
		}
	}
	for range sizes {
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a one-way request never reached the handler")
		}
	}
}

// TestGoErrorsThroughFuture: remote errors and pre-flight failures surface
// as Call's error, never as a hang, whether the caller waits with a
// timeout (the pooled timer) or without one.
func TestGoErrorsThroughFuture(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	c2 := dial(t, srv.Addr())
	c2.Close()
	for _, timeout := range []time.Duration{0, 5 * time.Second} {
		var remote *RemoteError
		if _, err := c.Call("svc", "Fail", nil, timeout); !errors.As(err, &remote) {
			t.Fatalf("timeout %v: Fail err = %v, want RemoteError", timeout, err)
		}
		if _, err := c2.Call("svc", "Echo", nil, timeout); !errors.Is(err, ErrClosed) {
			t.Fatalf("timeout %v: post-close Call err = %v, want ErrClosed", timeout, err)
		}
	}
}

// TestFuturesCompleteUnderConcurrentClose closes the client while many
// calls are in flight: every one must return (with a result or an error),
// and none may hang — whether callers wait without a timeout ("plain":
// only the connection's failure can end the wait) or with one ("wait":
// the close must win long before the timer).
func TestFuturesCompleteUnderConcurrentClose(t *testing.T) {
	for _, wait := range []bool{false, true} {
		name := "plain"
		if wait {
			name = "wait"
		}
		t.Run(name, func(t *testing.T) {
			srv := startEcho(t)
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			var timeout time.Duration
			if wait {
				timeout = 10 * time.Second
			}
			const callers = 8
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 64; i++ {
						method := "Echo"
						if i%8 == 0 {
							method = "Slow"
						}
						if _, err := c.Call("svc", method, []byte{byte(g), byte(i)}, timeout); errors.Is(err, ErrTimeout) {
							t.Error("call hung across Close")
							return
						}
					}
				}(g)
			}
			time.Sleep(5 * time.Millisecond)
			c.Close()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("calls hung after concurrent Close")
			}
		})
	}
}

// TestOneWayExecutesWithoutResponse: one-way invocations run on the server
// and the connection carries no response for them — a following two-way
// call gets its own response, uncorrupted.
func TestOneWayExecutesWithoutResponse(t *testing.T) {
	var hits atomic.Int64
	gate := make(chan struct{}, 1024)
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		if req.Method == "Tick" {
			hits.Add(1)
			gate <- struct{}{}
			return nil, errors.New("one-way errors must be dropped, not sent")
		}
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())

	const n = 100
	for i := 0; i < n; i++ {
		if err := c.OneWay("svc", "Tick", []byte{byte(i)}); err != nil {
			t.Fatalf("OneWay %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case <-gate:
		case <-time.After(5 * time.Second):
			t.Fatalf("server saw %d/%d one-way invocations", hits.Load(), n)
		}
	}
	// The connection is still coherent: the next two-way call gets its own
	// response, not a stray frame from the one-way storm.
	out, err := c.Call("svc", "Echo", []byte("after"), 5*time.Second)
	if err != nil || string(out) != "after" {
		t.Fatalf("post-one-way call = %q, %v", out, err)
	}
}

// TestOneWayLeaksNoPooledCalls: one-way invocations must not check out or
// register pooled call state — the pending map stays empty, so nothing can
// leak or be delivered to.
func TestOneWayLeaksNoPooledCalls(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	for i := 0; i < 500; i++ {
		if err := c.OneWay("svc", "Echo", []byte{1}); err != nil {
			t.Fatalf("OneWay %d: %v", i, err)
		}
	}
	// Synchronize: a two-way call after the storm proves the read loop is
	// alive and no stray response frames arrived for the one-ways.
	if _, err := c.Call("svc", "Echo", nil, 5*time.Second); err != nil {
		t.Fatalf("sync call: %v", err)
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries after one-way calls; one-way must not register call state", n)
	}

	// Oversize one-way payloads are refused before the wire, not leaked
	// into a poisoned writer.
	if err := c.OneWay("svc", "Echo", make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize OneWay err = %v, want ErrFrameTooLarge", err)
	}
	if out, err := c.Call("svc", "Echo", []byte("ok"), 5*time.Second); err != nil || string(out) != "ok" {
		t.Fatalf("connection poisoned by oversize one-way: %q, %v", out, err)
	}
}

// TestWaitTimeoutOnFutureThenReuse: a call abandoned by its timeout must
// not corrupt later calls that reuse its pooled result channel.
func TestWaitTimeoutOnFutureThenReuse(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	if _, err := c.Call("svc", "Slow", []byte("x"), 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for i := 0; i < 50; i++ {
		marker := []byte{byte(i)}
		out, err := c.Call("svc", "Echo", marker, 5*time.Second)
		if err != nil || !bytes.Equal(out, marker) {
			t.Fatalf("call %d after timeout: %q, %v", i, out, err)
		}
	}
}
