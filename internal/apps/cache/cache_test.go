package cache_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/apps/cache"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

func startCache(t *testing.T, mode cache.Mode) (*core.Pool, *core.Stub) {
	t.Helper()
	env := ermitest.New(t, 8)
	pool := env.StartPool(t, core.Config{
		Name: "cache", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, cache.New(cache.Config{Mode: mode}))
	stub := env.Stub(t, "cache")
	return pool, stub
}

func TestCachePutGetDelete(t *testing.T) {
	_, stub := startCache(t, cache.ExplicitFine)
	if _, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
		cache.PutArgs{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: "k"})
	if err != nil || !got.Hit || string(got.Value) != "v" {
		t.Fatalf("get = %+v, %v", got, err)
	}
	miss, err := core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: "nope"})
	if err != nil || miss.Hit {
		t.Fatalf("miss = %+v, %v", miss, err)
	}
	if _, err := core.Call[cache.GetArgs, cache.DelReply](stub, cache.MethodDelete, cache.GetArgs{Key: "k"}); err != nil {
		t.Fatalf("del: %v", err)
	}
	got, _ = core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: "k"})
	if got.Hit {
		t.Fatal("hit after delete")
	}
}

func TestCacheSingleObjectIllusion(t *testing.T) {
	// Writes through any member are reads through any other: the pool is
	// one cache (§2.1: the pool behaves as a single remote object).
	pool, stub := startCache(t, cache.ExplicitFine)
	for i := 0; i < 3*pool.Size(); i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
			cache.PutArgs{Key: key, Value: []byte(key)}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 3*pool.Size(); i++ {
		key := fmt.Sprintf("k%d", i)
		got, err := core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: key})
		if err != nil || !got.Hit || string(got.Value) != key {
			t.Fatalf("get(%s) = %+v, %v", key, got, err)
		}
	}
	n, err := core.Call[core.Empty, cache.LenReply](stub, cache.MethodLen, core.Empty{})
	if err != nil || n.N != int64(3*pool.Size()) {
		t.Fatalf("len = %d, %v", n.N, err)
	}
}

func TestImplicitModeUsesCPUPolicy(t *testing.T) {
	pool, _ := startCache(t, cache.Implicit)
	if pool.Policy() != "implicit" {
		t.Fatalf("policy = %s, want implicit (no PoolSizer)", pool.Policy())
	}
	fine, _ := startCache(t, cache.ExplicitFine)
	if fine.Policy() != "fine" {
		t.Fatalf("policy = %s, want fine (CacheExplicit2 overrides)", fine.Policy())
	}
}

// TestCoarseRAMThresholdGrowsPool reproduces CacheExplicit1 (Fig. 4b): an
// implicit-mode cache with RAM thresholds on the pool Config grows when the
// occupancy gauge crosses the RAM-increase bound, via the logical-OR coarse
// policy.
func TestCoarseRAMThresholdGrowsPool(t *testing.T) {
	env := ermitest.New(t, 8)
	pool := env.StartPool(t, core.Config{
		Name: "cache-ram", MinPoolSize: 2, MaxPoolSize: 5,
		BurstInterval:    time.Hour,
		CPUIncrThreshold: 85, CPUDecrThreshold: 1, // decr disabled in practice
		RAMIncrThreshold: 70, RAMDecrThreshold: 0,
		DisableBroadcast: true,
	}, cache.New(cache.Config{Mode: cache.Implicit, CapacityEntries: 4}))
	if pool.Policy() != "coarse" {
		t.Fatalf("policy = %s, want coarse", pool.Policy())
	}
	stub := env.Stub(t, "cache-ram")

	// Budget is 4 entries/member x 2 members = 8; 7 entries => ~88% RAM.
	for i := 0; i < 7; i++ {
		if _, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
			cache.PutArgs{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	pool.Step()
	if got := pool.Size(); got != 3 {
		t.Fatalf("size after RAM-pressure step = %d, want 3", got)
	}
}

func TestConcurrentPutsSameKeySerialized(t *testing.T) {
	_, stub := startCache(t, cache.ExplicitFine)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
					cache.PutArgs{Key: "hot", Value: []byte{byte(w)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: "hot"})
	if err != nil || !got.Hit {
		t.Fatalf("hot key lost: %+v, %v", got, err)
	}
}
