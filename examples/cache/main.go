// Example: the paper's running example — an elastic distributed cache
// (Figures 4 and 5) with fine-grained explicit elasticity. The cache class
// overrides ChangePoolSize to grow by two when put latency violates its
// bound, unless write-lock contention is the bottleneck, in which case
// adding objects would make things worse (Fig. 5's CacheExplicit2).
//
// Run with:
//
//	go run ./examples/cache
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"elasticrmi/internal/apps/cache"
	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mgr, err := cluster.New(cluster.Config{Nodes: 8, SlicesPerNode: 1})
	if err != nil {
		return err
	}
	defer mgr.Close()
	store, err := kvstore.NewCluster(2, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	// The pool reads shared state through a client session: repeated reads
	// are served from a lease-backed local cache that every store primary
	// invalidates *before* acknowledging a conflicting write, so cached
	// reads cost no round trip and can never observe a stale value.
	session := store.NewSession(kvstore.SessionOptions{})
	defer session.Close()
	regSrv, err := core.NewRegistryServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer regSrv.Close()
	reg, err := core.DialRegistry(regSrv.Addr())
	if err != nil {
		return err
	}
	defer reg.Close()

	pool, err := core.NewPool(core.Config{
		Name:          "web-cache",
		MinPoolSize:   2,
		MaxPoolSize:   8,
		BurstInterval: time.Second, // demo-friendly burst interval
	}, cache.New(cache.Config{Mode: cache.ExplicitFine}), core.Deps{
		Cluster: mgr, Store: session, StoreCluster: store, Registry: reg,
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Printf("cache pool up: %d members, policy=%s (ChangePoolSize overridden)\n",
		pool.Size(), pool.Policy())

	stub, err := core.LookupStub("web-cache", reg)
	if err != nil {
		return err
	}
	defer stub.Close()

	// Fill the cache and read it back with key affinity: every Put/Get for
	// a key is routed to that key's consistent-hash owner, so the same
	// member that stored a page serves its reads.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("page-%02d", i)
		if _, err := core.CallKeyed[cache.PutArgs, cache.PutReply](stub, cache.MethodPut, key,
			cache.PutArgs{Key: key, Value: []byte(fmt.Sprintf("<html>content %d</html>", i))}); err != nil {
			return err
		}
	}
	hits := 0
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("page-%02d", i)
		rep, err := core.CallKeyed[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, key, cache.GetArgs{Key: key})
		if err != nil {
			return err
		}
		if rep.Hit {
			hits++
		}
	}
	fmt.Printf("16 puts, 16 gets routed by key affinity: %d hits (single-object illusion)\n", hits)

	// Hot-key contention: many writers updating ONE key. Fig. 5's logic
	// refuses to grow the pool because lock contention, not capacity, is
	// the bottleneck.
	fmt.Println("hammering one hot key with 16 concurrent writers for 3 s...")
	deadline := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				_, _ = core.CallKeyed[cache.PutArgs, cache.PutReply](stub, cache.MethodPut, "hot",
					cache.PutArgs{Key: "hot", Value: []byte("x")})
			}
		}()
	}
	wg.Wait()
	fmt.Printf("after contention: pool=%d members (growth suppressed while lock-bound)\n", pool.Size())

	n, err := core.Call[core.Empty, cache.LenReply](stub, cache.MethodLen, core.Empty{})
	if err != nil {
		return err
	}
	fmt.Printf("cache holds %d entries\n", n.N)

	// The session cache at work: the first read leases the key, repeats
	// are local lookups, and a write pushes an invalidation before its ack
	// so the next read re-fetches the new value.
	if _, err := session.Put("banner", []byte("v1")); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, err := session.Get("banner"); err != nil {
			return err
		}
	}
	if _, err := session.Put("banner", []byte("v2")); err != nil {
		return err
	}
	if v, err := session.Get("banner"); err != nil || string(v.Value) != "v2" {
		return fmt.Errorf("cached read after write: %q, %v", v.Value, err)
	}
	st := session.Stats()
	fmt.Printf("store session cache: %d hits, %d misses, %d invalidations pushed\n",
		st.Hits, st.Misses, st.Invalidations)
	return nil
}
