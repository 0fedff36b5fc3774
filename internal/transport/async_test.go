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
// error), and none may hang.
func TestFuturesCompleteUnderConcurrentClose(t *testing.T) {
	for _, batched := range []bool{false, true} {
		name := "plain"
		if batched {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			srv := startEcho(t)
			var bo BatchOptions
			if batched {
				bo = BatchOptions{MaxDelay: 200 * time.Microsecond}
			}
			c, err := DialOpts(srv.Addr(), DialOptions{Timeout: 2 * time.Second, Batch: bo})
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

// TestBatchedClientEndToEnd pushes concurrent calls and one-ways through a
// batching client against a live server: the batch frames must fan out and
// every response must land on the right future.
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

	c, err := DialOpts(srv.Addr(), DialOptions{Timeout: 2 * time.Second, Batch: BatchOptions{MaxDelay: 500 * time.Microsecond}})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })

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
