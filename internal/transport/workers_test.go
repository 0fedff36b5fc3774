package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/route"
)

// startBlocking starts a default-bounded server whose "Block" handler
// parks until release is closed; entered counts handlers that reached it.
func startBlocking(t *testing.T) (srv *Server, entered *atomic.Int64, release chan struct{}) {
	t.Helper()
	entered = new(atomic.Int64)
	release = make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		if req.Method == "Block" {
			entered.Add(1)
			<-release
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Close()
	})
	return srv, entered, release
}

// blockN starts n Block calls and returns once every handler is running.
func blockN(t *testing.T, c *Client, entered *atomic.Int64, n int) []<-chan reply {
	t.Helper()
	calls := make([]<-chan reply, n)
	for i := range calls {
		calls[i] = goCall(c, "svc", "Block", nil, 0)
	}
	waitFor(t, "blocked handlers", func() bool { return entered.Load() == int64(n) })
	return calls
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoHeadOfLineWaitBelowMaxConcurrent: with 32 handlers blocked, a 33rd
// request is served at once by a worker of its own, not queued behind them.
func TestNoHeadOfLineWaitBelowMaxConcurrent(t *testing.T) {
	srv, entered, release := startBlocking(t)
	c := dial(t, srv.Addr())
	blocked := blockN(t, c, entered, 32)
	if _, err := c.Call("svc", "Fast", nil, 2*time.Second); err != nil {
		t.Fatalf("request 33 behind 32 blocked handlers: %v", err)
	}
	if n := entered.Load(); n != 32 {
		t.Fatalf("%d handlers entered, want 32", n)
	}
	for _, ch := range blocked {
		select {
		case <-ch:
			t.Fatal("a blocked call completed before release")
		default:
		}
	}
	close(release)
	for _, ch := range blocked {
		if r := <-ch; r.err != nil {
			t.Fatalf("blocked call: %v", r.err)
		}
	}
}

// TestParkedWorkersBounded: after a burst of 200 concurrent blocking
// requests completes, the workers beyond maxIdleWorkers retire; and Close
// stops the parked rest.
func TestParkedWorkersBounded(t *testing.T) {
	srv, entered, release := startBlocking(t)
	c := dial(t, srv.Addr())
	blocked := blockN(t, c, entered, 200)
	if n := srv.workers.Load(); n < 200 {
		t.Fatalf("%d live workers under 200 blocked handlers", n)
	}
	close(release)
	for _, ch := range blocked {
		if r := <-ch; r.err != nil {
			t.Fatalf("blocked call: %v", r.err)
		}
	}
	waitFor(t, "burst workers to retire", func() bool {
		return srv.workers.Load() <= maxIdleWorkers
	})
	if n := srv.idle.Load(); n != srv.workers.Load() {
		t.Fatalf("idle = %d with %d live workers and nothing queued", n, srv.workers.Load())
	}
	// The parked workers still serve.
	if _, err := c.Call("svc", "Fast", nil, 2*time.Second); err != nil {
		t.Fatalf("call after burst: %v", err)
	}
	if srv.workers.Load() < 2 {
		t.Fatal("no parked workers left to test Close against")
	}
	srv.Close()
	if n := srv.workers.Load(); n != 0 {
		t.Fatalf("%d workers still running after Close", n)
	}
}

// TestParkedWorkerAccountingUnderLoad: many callers at MaxConcurrent 4
// drive work through claims, spawns and owed items; every call completes
// and the accounting settles back to exact.
func TestParkedWorkerAccountingUnderLoad(t *testing.T) {
	srv, err := ServeOpts("127.0.0.1:0", func(req *Request) ([]byte, error) {
		return req.Payload, nil
	}, ServerOptions{MaxConcurrent: 4})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	defer srv.Close()
	c := dial(t, srv.Addr())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := c.Call("svc", "Echo", []byte("x"), 5*time.Second); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "workers to park", func() bool { return srv.idle.Load() == srv.workers.Load() })
	if n := srv.workers.Load(); n < 1 || n > 4 {
		t.Fatalf("%d live workers, want 1..4 under MaxConcurrent 4", n)
	}
}

func TestRouteUpdateForCurrentEpochAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tbl := route.Table{Epoch: 7, Members: []route.Member{{Addr: "a:1", Weight: 1}, {Addr: "b:2", Weight: 1}}}
	s := &Server{}
	s.SetRouteSource(func() route.Table { return tbl })
	allocs := testing.AllocsPerRun(1000, func() {
		if s.routeUpdateFor(7) != nil {
			t.Fatal("current requester got an update")
		}
	})
	if allocs != 0 {
		t.Fatalf("routeUpdateFor(current) = %v allocs, want 0", allocs)
	}
	if rt := s.routeUpdateFor(6); rt == nil || rt.Epoch != 7 {
		t.Fatalf("stale requester got %v", rt)
	}
}

func TestWriteSGAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := newConnWriter(conn)
	hdr := make([]byte, 32)
	payload := make([]byte, scatterGatherThreshold)
	allocs := testing.AllocsPerRun(200, func() {
		w.mu.Lock()
		err := w.writeSG(hdr, payload)
		w.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("writeSG = %v allocs, want 0", allocs)
	}
	if w.sg[0] != nil || w.sg[1] != nil {
		t.Fatal("writer still references the written slices")
	}
	conn.Close()
	<-drained
}

func TestCallAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	payload := make([]byte, 64)
	call := func() {
		out, err := c.Call("svc", "Echo", payload, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ReleasePayload(out)
	}
	for i := 0; i < 100; i++ {
		call() // fill the pools and the arena
	}
	if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
		t.Fatalf("loopback 64 B Call = %v allocs, want 0", allocs)
	}
}
