package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// TestInvokeAsyncRoundTrip pipelines a window of async invocations from one
// goroutine and checks the shared counter saw every one exactly once.
func TestInvokeAsyncRoundTrip(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	_ = pool
	stub, err := LookupStub("async-counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const n = 64
	futures := make([]*Future[addReply], n)
	for i := 0; i < n; i++ {
		futures[i] = GoCall[addArgs, addReply](stub, "Add", addArgs{N: 1})
	}
	for i, f := range futures {
		if _, err := f.Get(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != n {
		t.Fatalf("total = %d, want %d (async invocations lost or duplicated)", rep.Total, n)
	}
	if p := stub.Pending(); p != 0 {
		t.Fatalf("stub pending = %d after all futures completed", p)
	}
}

// TestInvokeAsyncFailsOver: the async path inherits Invoke's failover — a
// dead seed endpoint must not fail the future.
func TestInvokeAsyncFailsOver(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-failover", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	live := pool.Endpoints()[1]
	stub, err := NewStub("async-failover", []string{"127.0.0.1:1", live})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	rep, err := GoCall[addArgs, addReply](stub, "Add", addArgs{N: 5}).Get()
	if err != nil {
		t.Fatalf("async invoke with dead seed: %v", err)
	}
	if rep.Total != 5 {
		t.Fatalf("total = %d", rep.Total)
	}
}

// TestInvokeAsyncCountsFailoverLikeInvoke: an asynchronous invocation runs
// the synchronous failover loop, so failing over from a dead first member
// costs the same StaleRetries() either way.
func TestInvokeAsyncCountsFailoverLikeInvoke(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-stale", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	live := pool.Endpoints()[1]
	retries := func(invoke func(*Stub) error) uint64 {
		stub, err := NewStub("async-stale", []string{"127.0.0.1:1", live})
		if err != nil {
			t.Fatalf("NewStub: %v", err)
		}
		defer stub.Close()
		before := stub.StaleRetries()
		if err := invoke(stub); err != nil {
			t.Fatalf("invoke with dead seed: %v", err)
		}
		return stub.StaleRetries() - before
	}
	sync := retries(func(s *Stub) error { _, err := s.Invoke(MethodPing, nil); return err })
	async := retries(func(s *Stub) error { return s.InvokeAsync(MethodPing, nil).Err() })
	if sync == 0 || async != sync {
		t.Fatalf("stale retries: Invoke %d, InvokeAsync %d; want equal and nonzero", sync, async)
	}
}

// TestInvokeAsyncAllDeadPropagates: only when the whole pool is unreachable
// does the future surface an error (§4.3 contract, async edition).
func TestInvokeAsyncAllDeadPropagates(t *testing.T) {
	stub, err := NewStub("ghost", []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	if err := stub.InvokeAsync("M", nil).Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if err := stub.InvokeOneWay("M", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("one-way err = %v, want ErrUnavailable", err)
	}
}

// TestInvokeOneWayReachesPool: fire-and-forget invocations execute on the
// pool; the caller observes their effect through the shared state.
func TestInvokeOneWayReachesPool(t *testing.T) {
	env := newTestEnv(t, 8)
	newTestPool(t, env, Config{
		Name: "oneway-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := LookupStub("oneway-counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := OneWayCall(stub, "Add", addArgs{N: 1}); err != nil {
			t.Fatalf("OneWayCall %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := Call[Empty, addReply](stub, "Get", Empty{})
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if rep.Total == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep, _ := Call[Empty, addReply](stub, "Get", Empty{})
	t.Fatalf("one-way invocations observed = %d, want %d", rep.Total, n)
}

// TestSentinelSeesAsyncPendingWork: in-flight async invocations must show
// up in the member pending counts the sentinel broadcasts and the scaling
// policies read — queued async work is real load.
func TestSentinelSeesAsyncPendingWork(t *testing.T) {
	env := newTestEnv(t, 8)
	release := make(chan struct{})
	var once sync.Once
	factory := func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Block", func(Empty) (Empty, error) {
			<-release
			return Empty{}, nil
		})
		return mux, nil
	}
	pool, err := NewPool(Config{
		Name: "async-pending", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() {
		once.Do(func() { close(release) })
		pool.Close()
	})
	stub, err := LookupStub("async-pending", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const n = 8
	arg := transport.Encode(&Empty{})
	futures := make([]*AsyncCall, n)
	for i := 0; i < n; i++ {
		futures[i] = stub.InvokeAsync("Block", arg)
	}
	// The stub sees its own queued async work immediately...
	if p := stub.Pending(); p == 0 {
		t.Fatal("stub.Pending() = 0 with async invocations in flight")
	}
	// ...and once the frames land, the member meters (the numbers the
	// sentinel broadcasts and policies consume) count them too.
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, m := range pool.Members() {
			total += m.Pending
		}
		if total == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member pending = %d, want %d (async work invisible to sentinel)", total, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	once.Do(func() { close(release) })
	for i, f := range futures {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if p := stub.Pending(); p != 0 {
		t.Fatalf("stub pending = %d after completion", p)
	}
}

// TestStubPipelinesConcurrentFutures: a stub keeps full invocation
// coherence when many goroutines each keep a window of futures in flight.
func TestStubPipelinesConcurrentFutures(t *testing.T) {
	env := newTestEnv(t, 8)
	newTestPool(t, env, Config{
		Name: "pipelined-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := LookupStub("pipelined-counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const callers, per = 8, 32
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			futures := make([]*Future[addReply], per)
			for i := range futures {
				futures[i] = GoCall[addArgs, addReply](stub, "Add", addArgs{N: 1})
			}
			for _, f := range futures {
				if _, err := f.Get(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != callers*per {
		t.Fatalf("total = %d, want %d", rep.Total, callers*per)
	}
}

// TestInvocationsExecuteOnDrainingMember: under epoch routing a draining
// member never refuses work — clients are steered away by the routing
// table, not by errors. Anything that still reaches the member (stale
// two-way callers, and one-way invocations, which carry no reply to
// correct the sender with) must execute locally instead of being dropped —
// otherwise every scale-down loses traffic for the whole drain window.
func TestInvocationsExecuteOnDrainingMember(t *testing.T) {
	env := newTestEnv(t, 8)
	var hits atomic.Int64
	factory := func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Tick", func(Empty) (Empty, error) {
			hits.Add(1)
			return Empty{}, nil
		})
		return mux, nil
	}
	pool, err := NewPool(Config{
		Name: "oneway-drain", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	stub, err := LookupStub("oneway-drain", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	// Put every member into the draining state (as a scale-down would).
	pool.mu.Lock()
	members := append([]*member(nil), pool.members...)
	pool.mu.Unlock()
	for _, m := range members {
		m.draining.Store(true)
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.draining.Store(false)
		}
	})

	// Two-way invocations that reach a draining member are served (the
	// stub's table still lists both members; only a fresh epoch would
	// exclude them)...
	if _, err := stub.Invoke("Tick", transport.Encode(&Empty{})); err != nil {
		t.Fatalf("two-way invocation refused by draining member: %v", err)
	}
	hits.Store(0)
	// ...and one-way invocations must execute rather than vanish.
	const n = 10
	for i := 0; i < n; i++ {
		if err := stub.InvokeOneWay("Tick", transport.Encode(&Empty{})); err != nil {
			t.Fatalf("InvokeOneWay %d during drain: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for hits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("draining members executed %d/%d one-way invocations", hits.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
