package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// Routing-strategy benchmarks: tail latency and locality. They run stubs
// against bare transport servers — no pool runtime — so what is measured is
// purely the picker: round-robin vs power-of-two-choices under a skewed pool, and
// key-affinity vs strategy routing against member-local caches.

// startRoutingPool starts one transport server per handler, publishes a
// shared epoch-1 table over them and returns a stub routing across them.
func startRoutingPool(b *testing.B, handlers []transport.Handler, opts ...StubOption) *Stub {
	b.Helper()
	table := route.Table{Epoch: 1}
	addrs := make([]string, 0, len(handlers))
	servers := make([]*transport.Server, 0, len(handlers))
	for i, h := range handlers {
		srv, err := transport.Serve("127.0.0.1:0", h)
		if err != nil {
			b.Fatalf("Serve: %v", err)
		}
		b.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
		table.Members = append(table.Members, route.Member{
			Addr: srv.Addr(), UID: int64(i + 1), Weight: route.DefaultWeight,
		})
	}
	for _, srv := range servers {
		srv.SetRouteSource(func() route.Table { return table })
	}
	stub, err := NewStub("bench", addrs)
	if err != nil {
		b.Fatalf("NewStub: %v", err)
	}
	for _, o := range opts {
		o(stub)
	}
	b.Cleanup(func() { stub.Close() })
	// Land the epoch-1 table (with UIDs) before measuring.
	if err := stub.Refresh(); err != nil {
		b.Fatalf("Refresh: %v", err)
	}
	return stub
}

// benchSkewed measures invocation latency against a pool with one degraded
// member (10x the service time of the others) and reports the p50/p99 tail.
// Round-robin keeps feeding the slow member 1/n of all traffic; p2c sees
// its backlog through the in-flight counts and routes around it. Service
// times are multi-millisecond sleeps so the figure survives coarse timer
// granularity on small (single-CPU) CI machines, and the client runs a
// fixed 8-way concurrency so in-flight counts exist regardless of
// GOMAXPROCS.
func benchSkewed(b *testing.B, opts ...StubOption) {
	const fast, slow = 2 * time.Millisecond, 20 * time.Millisecond
	delays := []time.Duration{slow, fast, fast, fast}
	handlers := make([]transport.Handler, len(delays))
	for i, d := range delays {
		d := d
		// Each member is single-threaded (one slice in the paper's terms):
		// concurrent arrivals queue behind the mutex, so routing load onto
		// the degraded member costs queueing delay, not just service time.
		var sem sync.Mutex
		handlers[i] = func(req *transport.Request) ([]byte, error) {
			sem.Lock()
			time.Sleep(d)
			sem.Unlock()
			return req.Payload, nil
		}
	}
	stub := startRoutingPool(b, handlers, opts...)

	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	payload := []byte("x")
	b.SetParallelism(max(8/runtime.GOMAXPROCS(0), 1))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		for pb.Next() {
			start := time.Now()
			if _, err := stub.Invoke("Echo", payload); err != nil {
				b.Errorf("Invoke: %v", err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		latencies = append(latencies, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	b.ReportMetric(float64(latencies[len(latencies)*50/100].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99-ns")
}

func BenchmarkRoutingSkewedRR(b *testing.B)  { benchSkewed(b) }
func BenchmarkRoutingSkewedP2C(b *testing.B) { benchSkewed(b, WithPowerOfTwoBalancing()) }

// cachingMember simulates a member whose speed depends on locality: a
// member-local cache with bounded capacity, where a miss costs 50x a hit.
type cachingMember struct {
	mu     sync.Mutex
	cache  map[string]struct{}
	cap    int
	hits   atomic.Int64
	misses atomic.Int64
}

func (c *cachingMember) handle(req *transport.Request) ([]byte, error) {
	key := string(req.Payload)
	c.mu.Lock()
	_, hit := c.cache[key]
	if !hit {
		if len(c.cache) >= c.cap {
			for k := range c.cache { // evict an arbitrary resident entry
				delete(c.cache, k)
				break
			}
		}
		c.cache[key] = struct{}{}
	}
	c.mu.Unlock()
	// Multi-millisecond service times: coarse single-CPU timers would
	// otherwise flatten the hit/miss gap (see benchSkewed).
	if hit {
		c.hits.Add(1)
		time.Sleep(2 * time.Millisecond)
	} else {
		c.misses.Add(1)
		time.Sleep(20 * time.Millisecond)
	}
	return req.Payload, nil
}

// benchHotKey runs a 32-key working set against 4 members whose caches
// hold 16 entries each. Key affinity partitions the keyspace so every
// member's share fits its cache (all hits after warmup); strategy routing
// sprays all 32 keys over every member and thrashes the caches. Keys are
// drawn randomly so no aliasing between the round-robin rotation and the
// keyspace can mask the thrash.
func benchHotKey(b *testing.B, keyed bool) {
	const members, capacity, keys = 4, 16, 32
	caches := make([]*cachingMember, members)
	handlers := make([]transport.Handler, members)
	for i := range handlers {
		caches[i] = &cachingMember{cache: make(map[string]struct{}), cap: capacity}
		handlers[i] = caches[i].handle
	}
	stub := startRoutingPool(b, handlers)
	keyset := make([]string, keys)
	for i := range keyset {
		keyset[i] = fmt.Sprintf("key-%02d", i)
	}

	b.SetParallelism(max(8/runtime.GOMAXPROCS(0), 1))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
		for pb.Next() {
			key := keyset[rng.IntN(keys)]
			var err error
			if keyed {
				_, err = stub.InvokeKeyed("Get", key, []byte(key))
			} else {
				_, err = stub.Invoke("Get", []byte(key))
			}
			if err != nil {
				b.Errorf("invoke: %v", err)
				return
			}
		}
	})
	b.StopTimer()
	var hits, misses int64
	for _, c := range caches {
		hits += c.hits.Load()
		misses += c.misses.Load()
	}
	if hits+misses > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit-%")
	}
}

func BenchmarkRoutingHotKeySpray(b *testing.B)    { benchHotKey(b, false) }
func BenchmarkRoutingHotKeyAffinity(b *testing.B) { benchHotKey(b, true) }
