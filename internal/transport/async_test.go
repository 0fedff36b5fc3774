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

// TestGoFutureRoundTrip drives the future API end to end: Done, Err,
// Decode, Release.
func TestGoFutureRoundTrip(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())

	payload := Encode(&echoArgs{Text: "future", N: 9})
	ca := c.Go("svc", "Echo", payload)
	select {
	case <-ca.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("future never completed")
	}
	if err := ca.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	var got echoArgs
	if err := ca.Decode(&got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Text != "future" || got.N != 9 {
		t.Fatalf("round trip = %+v", got)
	}
	ca.Release()
}

// TestGoPipelinesManyCalls keeps a window of futures in flight from a
// single goroutine — the pipelining the synchronous API cannot express —
// and checks every response lands on the right future.
func TestGoPipelinesManyCalls(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())

	const n = 256
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		calls[i] = c.Go("svc", "Echo", []byte{byte(i), byte(i >> 8)})
	}
	for i, ca := range calls {
		out, err := ca.Wait(5 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(out, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("call %d got %v (responses crossed)", i, out)
		}
	}
}

// TestBatchedClientEndToEnd mixes concurrent futures and one-ways from
// many goroutines on one connection, so their frames coalesce in its write
// buffer: held and unheld frames interleave in one buffer, every response
// must still land on its own future, and every one-way must arrive.
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
				out, err := c.Go("svc", "Echo", marker).Wait(10 * time.Second)
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

// TestWaitFlushesQueuedEntry: a caller blocking on a future whose request
// frame is still held in the connection buffer flushes it itself — it
// never waits for the straggler timer.
func TestWaitFlushesQueuedEntry(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	for attempt := 0; attempt < 100; attempt++ {
		ca := c.Go("svc", "Echo", []byte("kick"))
		// Catch the frame while it is still held and stop the straggler
		// timer before it fires: from then on only flush-on-wait can put
		// the frame on the wire.
		c.w.mu.Lock()
		held := c.w.holding.Load() && c.w.bw.Buffered() > 0 && c.w.straggler.Stop()
		c.w.mu.Unlock()
		if !held {
			// The timer won the race (the host stalled for the whole
			// bound); the frame went out on its own, so try again.
			if _, err := ca.Wait(10 * time.Second); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			continue
		}
		out, err := ca.Wait(10 * time.Second)
		if err != nil || string(out) != "kick" {
			t.Fatalf("Wait on held call: %q, %v", out, err)
		}
		return
	}
	t.Fatal("never caught a held request frame in 100 attempts")
}

// TestHeldWriteInheritsOwedFlush: a writer that skipped its flush because
// another was queued hands the flush to that writer even when it would
// hold, so an unheld frame never waits on the straggler timer; and a
// connection that only ever writes unheld frames never creates the timer.
func TestHeldWriteInheritsOwedFlush(t *testing.T) {
	var buf bytes.Buffer
	w := newConnWriter(&buf)
	w.waiters.Add(1) // a writer is queued behind the unheld frame
	if err := w.writeRequest(1, 0, 0, "svc", "Sync", nil, false); err != nil {
		t.Fatal(err)
	}
	w.waiters.Add(-1)
	if buf.Len() != 0 || !w.owed {
		t.Fatalf("unheld frame with a queued writer: %d bytes flushed, owed=%v; want 0, true", buf.Len(), w.owed)
	}
	if err := w.writeRequest(2, 0, 0, "svc", "Async", nil, true); err != nil {
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

// TestDoneOnlyFutureCompletes: a future consumed only through Done — no
// blocking accessor ever flushes for it — still completes, because the
// straggler timer bounds how long a held frame may sit in the buffer.
func TestDoneOnlyFutureCompletes(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	for i := 0; i < 20; i++ {
		ca := c.Go("svc", "Echo", []byte{byte(i)})
		select {
		case <-ca.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d: Done-only future never completed", i)
		}
		if ca.res.err != nil || !bytes.Equal(ca.res.payload, []byte{byte(i)}) {
			t.Fatalf("call %d: %q, %v", i, ca.res.payload, ca.res.err)
		}
		ca.Release()
	}
}

// TestCloseFailsHeldFutures: closing a client with futures whose frames
// may still be held fails every one with ErrClosed instead of leaving it
// hanging.
func TestCloseFailsHeldFutures(t *testing.T) {
	block := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		<-block // no reply can race the Close
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(block) })
	c := dial(t, srv.Addr())

	calls := make([]*Call, 8)
	for i := range calls {
		calls[i] = c.Go("svc", "Hold", []byte{byte(i)})
	}
	c.Close()
	for i, ca := range calls {
		select {
		case <-ca.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("future %d hung across Close", i)
		}
		if err := ca.Err(); !errors.Is(err, ErrClosed) {
			t.Fatalf("future %d err = %v, want ErrClosed", i, err)
		}
		ca.Release()
	}
}

// TestGoPayloadReusableOnReturn: Go has copied (or written) the payload by
// the time it returns, so a caller overwriting the buffer at once cannot
// corrupt the request — whether the frame is held in the connection
// buffer, spills it, or takes the scatter-gather path.
func TestGoPayloadReusableOnReturn(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	sizes := []int{64, 12 << 10, 12 << 10, scatterGatherThreshold + 1, 64}
	buf := make([]byte, scatterGatherThreshold+1)
	calls := make([]*Call, len(sizes))
	for i, n := range sizes {
		for j := range buf[:n] {
			buf[j] = byte(i + j)
		}
		calls[i] = c.Go("svc", "Echo", buf[:n])
		for j := range buf {
			buf[j] = 0xEE // the caller reuses its buffer straight away
		}
	}
	for i, ca := range calls {
		out, err := ca.Wait(10 * time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(out) != sizes[i] {
			t.Fatalf("call %d: %d bytes back, sent %d", i, len(out), sizes[i])
		}
		for j, b := range out {
			if b != byte(i+j) {
				t.Fatalf("call %d: byte %d = %#x, want %#x (payload reused before it was written)", i, j, b, byte(i+j))
			}
		}
	}
}

// TestGoErrorsThroughFuture: remote errors and pre-flight failures all
// surface through the future, never as a hang.
func TestGoErrorsThroughFuture(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())

	var remote *RemoteError
	if err := c.Go("svc", "Fail", nil).Err(); !errors.As(err, &remote) {
		t.Fatalf("Fail err = %v, want RemoteError", err)
	}

	c2 := dial(t, srv.Addr())
	c2.Close()
	if err := c2.Go("svc", "Echo", nil).Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Go err = %v, want ErrClosed", err)
	}
}

// TestFuturesCompleteUnderConcurrentClose closes the client while many
// futures are in flight: every one must complete (with a result or an
// error), and none may hang — whether callers consume them through Done
// alone ("plain": held frames leave on the straggler timer) or through
// Wait (flush-on-wait).
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
						ca := c.Go("svc", method, []byte{byte(g), byte(i)})
						if wait {
							if _, err := ca.Wait(10 * time.Second); errors.Is(err, ErrTimeout) {
								t.Error("future hung across Close")
								return
							}
							continue
						}
						select {
						case <-ca.Done():
							ca.Release()
						case <-time.After(10 * time.Second):
							t.Error("future hung across Close")
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
				t.Fatal("futures hung after concurrent Close")
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
// register pooled Call objects — the pending map stays empty, so nothing
// can leak or be delivered to.
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
		t.Fatalf("%d pending entries after one-way calls; one-way must not register futures", n)
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

// TestWaitTimeoutOnFutureThenReuse: a future abandoned by Wait's timeout
// must not corrupt later calls that reuse the pooled object.
func TestWaitTimeoutOnFutureThenReuse(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	if _, err := c.Go("svc", "Slow", []byte("x")).Wait(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
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

// TestReleaseAbandonsIncompleteFuture: releasing an in-flight future must
// complete it for concurrent Done waiters and leave the pooled object
// quiescent.
func TestReleaseAbandonsIncompleteFuture(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	ca := c.Go("svc", "Slow", []byte("x"))
	waiter := make(chan error, 1)
	done := ca.Done()
	go func() {
		<-done
		waiter <- nil
	}()
	ca.Release()
	select {
	case <-waiter:
	case <-time.After(5 * time.Second):
		t.Fatal("Done waiter hung after Release")
	}
	// The connection keeps working and pooled objects stay clean.
	for i := 0; i < 20; i++ {
		marker := []byte{byte(i)}
		out, err := c.Call("svc", "Echo", marker, 5*time.Second)
		if err != nil || !bytes.Equal(out, marker) {
			t.Fatalf("call %d after Release: %q, %v", i, out, err)
		}
	}
}
