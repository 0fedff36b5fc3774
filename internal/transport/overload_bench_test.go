package transport

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The saturation benchmark: the same CPU-bound echo workload offered at
// roughly 10x the server's execution capacity, once behind the admission
// controller sized to the hardware (Guarded) and once with the gate and
// queue opened so wide they never bind (Unguarded —
// the old goroutine-per-request behaviour). Goodput counts replies that
// arrive within the caller's budget. The guarded server sheds the excess
// for the price of a wire round-trip and keeps executing admitted work at
// hardware speed; the unguarded server accepts everything, timeshares the
// CPU across 10x too many handlers, and finishes nearly every call after
// its caller stopped waiting — congestion collapse.
//
// Run one experiment per iteration: -bench BenchmarkOverload -benchtime 1x.

// burn spins for d of wall time: a stand-in for a CPU-bound handler whose
// service time dilates under scheduler overcommit, which is exactly the
// mechanism that turns over-admission into collapse.
func burn(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 256; i++ { //nolint:revive // busy loop is the point
			_ = i
		}
	}
}

func runOverloadExperiment(b *testing.B, opts ServerOptions) (goodput, shedRate, lateRate float64) {
	b.Helper()
	const (
		serviceTime = time.Millisecond
		budget      = 8 * time.Millisecond
		duration    = 1500 * time.Millisecond
	)
	srv, err := ServeOpts("127.0.0.1:0", func(req *Request) ([]byte, error) {
		burn(serviceTime)
		return req.Payload, nil
	}, opts)
	if err != nil {
		b.Fatalf("ServeOpts: %v", err)
	}
	defer srv.Close()

	// Heavy overcommit: the gate admits up to NumCPU concurrent burns; the
	// closed loop keeps 30x NumCPU callers resubmitting the instant they
	// hear back (success, shed or timeout), so the unguarded server runs
	// ~30 burns per core and every one of them dilates past the budget.
	callers := 30 * runtime.NumCPU()
	clients := make([]*Client, 4)
	for i := range clients {
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Fatalf("Dial: %v", err)
		}
		defer c.Close()
		clients[i] = c
	}
	var good, shed, late atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		c := clients[i%len(clients)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Call("svc", "Echo", payload, budget)
				switch {
				case err == nil:
					good.Add(1)
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrExpired):
					shed.Add(1)
				case errors.Is(err, ErrTimeout):
					late.Add(1)
				default:
					return // connection torn down at experiment end
				}
			}
		}()
	}
	start := time.Now()
	time.Sleep(duration)
	elapsed := time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	return float64(good.Load()) / elapsed, float64(shed.Load()) / elapsed, float64(late.Load()) / elapsed
}

func reportOverload(b *testing.B, opts ServerOptions) {
	var goodput, shedRate, lateRate float64
	for i := 0; i < b.N; i++ {
		goodput, shedRate, lateRate = runOverloadExperiment(b, opts)
	}
	b.ReportMetric(goodput, "goodput-ops/s")
	b.ReportMetric(shedRate, "shed-ops/s")
	b.ReportMetric(lateRate, "late-ops/s")
	b.ReportMetric(0, "ns/op") // wall time is fixed; ns/op is meaningless here
}

func BenchmarkOverloadGuarded(b *testing.B) {
	// Gate sized to the hardware, queue kept shallow: admitted work clears
	// well inside the budget, everything beyond is shed at wire cost.
	reportOverload(b, ServerOptions{
		MaxConcurrent: runtime.NumCPU(),
		MaxQueue:      runtime.NumCPU(),
	})
}

func BenchmarkOverloadUnguarded(b *testing.B) {
	// Bounds so wide they never bind: every request is accepted and
	// executed, as the pre-admission-control server did.
	reportOverload(b, ServerOptions{MaxConcurrent: 1 << 20, MaxQueue: 1 << 20})
}
