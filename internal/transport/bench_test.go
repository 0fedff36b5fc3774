package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The transport microbenchmarks measure the raw invocation hot path: one
// echo round-trip over a live TCP connection, excluding application payload
// encoding (the payload is an opaque []byte, as it is for a generated stub).
// Variants cover small/medium/large payloads and single/concurrent callers;
// allocs/op is reported because the call path is designed to be
// allocation-light in steady state.

func startBenchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	if err != nil {
		b.Fatalf("Serve: %v", err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

func benchmarkEcho(b *testing.B, payloadSize, callers int) {
	srv := startBenchServer(b)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm the path so steady-state cost is measured.
	if _, err := c.Call("svc", "Echo", payload, 10*time.Second); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.SetBytes(int64(payloadSize))
	b.ReportAllocs()
	b.ResetTimer()

	if callers <= 1 {
		for i := 0; i < b.N; i++ {
			out, err := c.Call("svc", "Echo", payload, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			ReleasePayload(out)
		}
		return
	}

	var wg sync.WaitGroup
	per := b.N / callers
	extra := b.N % callers
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				out, err := c.Call("svc", "Echo", payload, 10*time.Second)
				if err != nil {
					errs <- err
					return
				}
				ReleasePayload(out)
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCall is the headline number: a 64-byte echo round-trip from a
// single caller over one multiplexed connection.
func BenchmarkCall(b *testing.B)      { benchmarkEcho(b, 64, 1) }
func BenchmarkCall4KB(b *testing.B)   { benchmarkEcho(b, 4<<10, 1) }
func BenchmarkCall256KB(b *testing.B) { benchmarkEcho(b, 256<<10, 1) }

// BenchmarkCall256KBNoSG is BenchmarkCall256KB with the scatter-gather
// write path disabled (header and payload copied into one contiguous
// buffer), isolating what writev-style vectored writes buy on large frames.
func BenchmarkCall256KBNoSG(b *testing.B) {
	sgEnabled.Store(false)
	b.Cleanup(func() { sgEnabled.Store(true) })
	benchmarkEcho(b, 256<<10, 1)
}

// Concurrent variants share one connection, exercising multiplexing and
// write coalescing under contention.
func BenchmarkCallConcurrent8(b *testing.B)  { benchmarkEcho(b, 64, 8) }
func BenchmarkCallConcurrent64(b *testing.B) { benchmarkEcho(b, 64, 64) }

// BenchmarkOneWay measures fire-and-forget submission throughput; a sync
// barrier call at the end keeps the server honest about having consumed
// the stream. The open-loop flood legitimately fills the admission queue,
// so the barrier retries while it is being shed (one-way drops under
// saturation are the admission contract, not a failure).
func BenchmarkOneWay(b *testing.B) {
	srv := startBenchServer(b)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	b.Cleanup(func() { c.Close() })
	payload := make([]byte, 64)
	if _, err := c.Call("svc", "Echo", payload, 10*time.Second); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.OneWay("svc", "Echo", payload); err != nil {
			b.Fatal(err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		_, err := c.Call("svc", "Echo", payload, 30*time.Second)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			b.Fatal(err)
		}
	}
}
