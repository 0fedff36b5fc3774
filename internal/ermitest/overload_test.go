package ermitest_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
	"elasticrmi/internal/transport"
)

// overloadObject is the scenario workload: Work sleeps a fixed service
// time (so member capacity is deterministic: MaxConcurrentInvocations /
// serviceTime per member), Hold parks on a shared gate, Probe records that
// it executed at all.
type overloadObject struct {
	mux *core.Mux
}

func newOverloadFactory(serviceTime time.Duration, gate chan struct{}, probes *atomic.Int64) core.Factory {
	return func(ctx *core.MemberContext) (core.Object, error) {
		mux := core.NewMux()
		core.Handle(mux, "Work", func(core.Empty) (core.Empty, error) {
			time.Sleep(serviceTime)
			return core.Empty{}, nil
		})
		core.Handle(mux, "Hold", func(core.Empty) (core.Empty, error) {
			<-gate
			return core.Empty{}, nil
		})
		core.Handle(mux, "Probe", func(core.Empty) (core.Empty, error) {
			probes.Add(1)
			return core.Empty{}, nil
		})
		return &overloadObject{mux: mux}, nil
	}
}

func (o *overloadObject) HandleCall(method string, arg []byte) ([]byte, error) {
	return o.mux.HandleCall(method, arg)
}

// poolShedExpired sums the admission counters across the pool's members via
// the skeletons' __stats surface.
func poolShedExpired(t *testing.T, pool *core.Pool) (shed, expired uint64) {
	t.Helper()
	for _, ep := range pool.Endpoints() {
		c, err := transport.Dial(ep)
		if err != nil {
			t.Fatalf("dial %s: %v", ep, err)
		}
		var rep core.StatsReply
		err = c.CallDecode("overload", core.MethodStats, &core.Empty{}, &rep, 5*time.Second)
		c.Close()
		if err != nil {
			t.Fatalf("__stats %s: %v", ep, err)
		}
		shed += rep.Shed
		expired += rep.Expired
	}
	return shed, expired
}

// TestOverloadSustainedGoodputAndNoExpiredWork is the admission-control
// scenario of the deadline/overload protocol:
//
//   - Phase 1 (expired work): with every execution slot parked, queued
//     invocations whose budget expires in the queue are dropped at dequeue —
//     their handlers never run, even after the slots free up.
//   - Phase 2 (sustained overload): at roughly 10x the pool's capacity in
//     offered load, acknowledged goodput stays flat — within 20% of
//     single-member capacity x pool size — because excess arrivals are shed
//     with cheap overload replies instead of queued into collapse, and the
//     shed counts surface in the members' stats for the scaling policies.
func TestOverloadSustainedGoodputAndNoExpiredWork(t *testing.T) {
	const (
		members     = 2
		slots       = 4                     // execution slots per member
		serviceTime = 25 * time.Millisecond // Work's sleep
	)
	gate := make(chan struct{})
	var probes atomic.Int64
	env := ermitest.New(t, 8)
	// MaxPoolSize leaves one slot of headroom: the final assertion is that
	// the shed counters reaching PoolMetrics make the implicit policy scale
	// out, even though average CPU is nowhere near its 90% threshold.
	pool := env.StartPool(t, core.Config{
		Name: "overload", MinPoolSize: members, MaxPoolSize: members + 1,
		BurstInterval: time.Hour, DisableBroadcast: true,
		DrainTimeout: time.Second,
		// Sleep-bound handlers on huge slices: utilization stays far below
		// every CPU threshold, so only the shed counters can trigger growth.
		SliceCPUs:                64,
		MaxConcurrentInvocations: slots,
		MaxQueuedInvocations:     2 * slots,
	}, newOverloadFactory(serviceTime, gate, &probes))

	// ---- Phase 1: expired-in-queue work never executes. ----
	// Park every execution slot on every member.
	holders := env.Stub(t, "overload")
	var hold sync.WaitGroup
	for i := 0; i < members*slots; i++ {
		hold.Add(1)
		go func() {
			defer hold.Done()
			_, _ = core.Call[core.Empty, core.Empty](holders, "Hold", core.Empty{})
		}()
	}
	// Wait until all slots are provably occupied: further work gets queued,
	// not executed.
	ermitest.WaitUntil(t, "pool slots fully parked", 5*time.Second, func() bool {
		n := 0
		for _, m := range pool.Members() {
			n += m.Pending
		}
		return n >= members*slots
	})

	// Probes with a budget far below how long the slots stay parked: they
	// are queued (or shed) while every worker is busy, and their budget is
	// gone long before a slot frees — so not one of them may ever execute.
	probeStub := env.Stub(t, "overload", core.WithCallTimeout(60*time.Millisecond))
	for i := 0; i < 2*members*slots; i++ {
		if _, err := core.Call[core.Empty, core.Empty](probeStub, "Probe", core.Empty{}); err == nil {
			t.Fatal("probe succeeded against a fully parked pool")
		}
	}
	time.Sleep(200 * time.Millisecond) // probe budgets are now long expired
	close(gate)
	hold.Wait()
	// Give any (wrongly) surviving probe work a chance to surface.
	ermitest.WaitUntil(t, "pending work to drain", 5*time.Second, func() bool {
		n := 0
		for _, m := range pool.Members() {
			n += m.Pending
		}
		return n == 0
	})
	if got := probes.Load(); got != 0 {
		t.Fatalf("%d expired probes executed; expired-in-queue work must never run", got)
	}
	if _, expired := poolShedExpired(t, pool); expired == 0 {
		t.Fatal("no expired work counted despite expired probes")
	}

	// ---- Phase 2: goodput stays flat under ~10x offered load. ----
	// Capacity: members x slots concurrent Works of serviceTime each.
	capacity := float64(members*slots) / serviceTime.Seconds() // acks/sec
	var acked, refused atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 40 // >> members x slots: every refusal retries instantly
	for i := 0; i < callers; i++ {
		s := env.Stub(t, "overload", core.WithPowerOfTwoBalancing(), core.WithCallTimeout(2*time.Second))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := core.Call[core.Empty, core.Empty](s, "Work", core.Empty{}); err != nil {
					if !errors.Is(err, core.ErrUnavailable) {
						t.Errorf("unexpected invoke error under overload: %v", err)
						return
					}
					refused.Add(1)
					continue
				}
				acked.Add(1)
			}
		}()
	}
	const measure = 2 * time.Second
	// Let the closed loop saturate before measuring.
	time.Sleep(300 * time.Millisecond)
	acked.Store(0)
	refused.Store(0)
	start := time.Now()
	time.Sleep(measure)
	goodput := float64(acked.Load()) / time.Since(start).Seconds()
	close(stop)
	wg.Wait()

	if refused.Load() == 0 {
		t.Fatal("no invocations were refused: the pool was never overloaded")
	}
	// Flat goodput: within 20% of capacity (scheduling overhead only eats
	// into it, so the lower bound is the sharp one; the upper bound catches
	// a broken gate admitting more than its slots).
	if goodput < 0.8*capacity {
		t.Fatalf("goodput %.0f/s under overload, want >= %.0f/s (80%% of capacity %.0f/s)", goodput, 0.8*capacity, capacity)
	}
	if goodput > 1.35*capacity {
		t.Fatalf("goodput %.0f/s exceeds capacity %.0f/s: admission gate not bounding execution", goodput, capacity)
	}
	shed, _ := poolShedExpired(t, pool)
	if shed == 0 {
		t.Fatal("admission controller shed nothing at 10x load")
	}
	// The overload signal closes the elasticity loop: one scaling step sees
	// the shed counts in PoolMetrics and grows the pool, although average
	// CPU (sleep-bound handlers) is far below the implicit 90% threshold.
	pool.Step()
	if got := pool.Size(); got != members+1 {
		t.Fatalf("pool size after scaling step = %d, want %d (shed counts must drive scale-out)", got, members+1)
	}
}
