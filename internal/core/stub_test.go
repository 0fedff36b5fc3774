package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

func TestStubValidation(t *testing.T) {
	if _, err := NewStub("", []string{"a:1"}); err == nil {
		t.Fatal("accepted empty name")
	}
	if _, err := NewStub("x", nil); err == nil {
		t.Fatal("accepted empty endpoints")
	}
}

// TestStubSurvivesDeadSeed: a stub seeded with one dead endpoint plus one
// live member must fail over and serve.
func TestStubSurvivesDeadSeed(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "deadseed", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	live := pool.Endpoints()[1]
	stub, err := NewStub("deadseed", []string{"127.0.0.1:1", live})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	rep, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 3})
	if err != nil {
		t.Fatalf("invoke with dead seed: %v", err)
	}
	if rep.Total != 3 {
		t.Fatalf("total = %d", rep.Total)
	}
	// The dead endpoint is pruned from the member list.
	for _, m := range stub.Members() {
		if m == "127.0.0.1:1" {
			t.Fatal("dead endpoint still in member list")
		}
	}
}

// TestStubAllDeadPropagates: when every member is unreachable the error
// propagates to the application (§4.3: "If all attempts to communicate with
// the elastic object pool fail, the exception is propagated").
func TestStubAllDeadPropagates(t *testing.T) {
	stub, err := NewStub("ghost", []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	_, err = stub.Invoke("M", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestStubReusedAfterPoolRestart: after the pool is closed and re-created
// (new ports), a stale stub recovers via registry-driven re-creation; the
// stale one itself reports unavailable.
func TestStubStaleAfterPoolClose(t *testing.T) {
	env := newTestEnv(t, 8)
	pool, err := NewPool(Config{
		Name: "restart", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, newCounterFactory(), env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() }) // idempotent; the test closes it early
	stub, err := LookupStub("restart", env.regCli)
	if err != nil {
		t.Fatalf("stub: %v", err)
	}
	defer stub.Close()
	if _, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	pool.Close()
	if _, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("stale stub err = %v, want ErrUnavailable", err)
	}
	// The registry binding is gone too.
	if _, err := env.regCli.Lookup("restart"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("lookup after close = %v, want ErrNotBound", err)
	}
}

// TestStubAppErrorsNotRetried: application errors must reach the caller
// exactly once, not be retried on other members.
func TestStubAppErrorsNotRetried(t *testing.T) {
	env := newTestEnv(t, 8)
	calls := 0
	factory := func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Fail", func(Empty) (Empty, error) {
			calls++
			return Empty{}, errors.New("app boom")
		})
		return mux, nil
	}
	pool, err := NewPool(Config{
		Name: "apperr", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	stub, err := LookupStub("apperr", env.regCli)
	if err != nil {
		t.Fatalf("stub: %v", err)
	}
	defer stub.Close()
	_, err = Call[Empty, Empty](stub, "Fail", Empty{})
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want application error", err)
	}
	if calls != 1 {
		t.Fatalf("method executed %d times, want exactly 1 (no retry of app errors)", calls)
	}
}

// TestStubOversizePayloadNotRetried: a payload too large to frame is a
// caller-side bug — the invocation must fail with ErrFrameTooLarge without
// dropping healthy members or retrying the unframeable request elsewhere.
func TestStubOversizePayloadNotRetried(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "bigpayload", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := NewStub("bigpayload", pool.Endpoints())
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	before := len(stub.Members())

	_, err = stub.Invoke("Add", make([]byte, transport.MaxFrame+1))
	if !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if got := len(stub.Members()); got != before {
		t.Fatalf("members = %d after oversize call, want %d (no member dropped)", got, before)
	}
	// The same stub and connections still serve normal invocations.
	rep, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 5})
	if err != nil {
		t.Fatalf("call after oversize payload: %v", err)
	}
	if rep.Total != 5 {
		t.Fatalf("total = %d", rep.Total)
	}
}

// napFactory builds a pool object with a fast Echo and sleep-for-the-given-
// duration Nap method, for timeout-behaviour tests.
func napFactory() Factory {
	return func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Echo", func(a addArgs) (addArgs, error) { return a, nil })
		Handle(mux, "Nap", func(a napArgs) (Empty, error) {
			time.Sleep(a.D)
			return Empty{}, nil
		})
		return mux, nil
	}
}

// TestTimeoutKeepsConnectionAndMember is the regression test for the
// timeout-kills-connection bug: a timed-out call used to fall into the
// generic transport-failure branch, Drop the shared cached connection —
// failing every unrelated call multiplexed on it — and Exclude a member
// that was merely slow. Two concurrent keyed calls share one cached
// connection to the same member; the slow one times out, the fast one must
// still succeed and the member must stay routable.
func TestTimeoutKeepsConnectionAndMember(t *testing.T) {
	env := newTestEnv(t, 8)
	pool, err := NewPool(Config{
		Name: "slowpoke", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true, DrainTimeout: time.Second,
	}, napFactory(), env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	stub, err := NewStub("slowpoke", pool.Endpoints(), WithCallTimeout(800*time.Millisecond))
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	// Prime the routing table (and learn the member set) with one call.
	if _, err := Call[addArgs, addArgs](stub, "Echo", addArgs{N: 1}); err != nil {
		t.Fatalf("prime: %v", err)
	}
	members := len(stub.Members())

	var wg sync.WaitGroup
	wg.Add(2)
	var slowErr, fastErr error
	go func() {
		defer wg.Done()
		// Same key => same member => same cached connection as the fast call.
		_, slowErr = CallKeyed[napArgs, Empty](stub, "Nap", "k", napArgs{D: 1500 * time.Millisecond})
	}()
	go func() {
		defer wg.Done()
		time.Sleep(400 * time.Millisecond) // in flight when the slow call times out at ~800ms
		_, fastErr = CallKeyed[napArgs, Empty](stub, "Nap", "k", napArgs{D: 600 * time.Millisecond})
	}()
	wg.Wait()
	if slowErr == nil || !errors.Is(slowErr, ErrUnavailable) {
		t.Fatalf("slow call err = %v, want timeout-driven ErrUnavailable", slowErr)
	}
	if fastErr != nil {
		t.Fatalf("fast call on the shared connection failed: %v (timeout must not kill the multiplexed conn)", fastErr)
	}
	if got := len(stub.Members()); got != members {
		t.Fatalf("members after timeout = %d, want %d (slow member must not be excluded)", got, members)
	}
}

// TestInvokeWallTimeBoundedByBudget is the regression test for the
// unbounded-retry bug: the failover loop used to grant every attempt a
// fresh full timeout, so one Invoke could block for (2n+2) x timeout. The
// budget is now shared across attempts: total wall time stays around one
// timeout even when every member is slow.
func TestInvokeWallTimeBoundedByBudget(t *testing.T) {
	env := newTestEnv(t, 8)
	pool, err := NewPool(Config{
		Name: "molasses", MinPoolSize: 3, MaxPoolSize: 3,
		BurstInterval: time.Hour, DisableBroadcast: true, DrainTimeout: time.Second,
	}, napFactory(), env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	stub, err := NewStub("molasses", pool.Endpoints(), WithCallTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()

	start := time.Now()
	_, err = Call[napArgs, Empty](stub, "Nap", napArgs{D: 2500 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invoke against an all-slow pool succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// One 500ms budget shared across every attempt, plus scheduling slack —
	// nowhere near the (2n+2) x 500ms = 4s the per-attempt bug allowed.
	if elapsed > 2*time.Second {
		t.Fatalf("invoke blocked %v, want ~500ms (budget must span all failover attempts)", elapsed)
	}
}

// TestStubRecoversAfterTotalExclusion: a transient outage can locally
// exclude every member; exclusions only clear when a fresh table arrives,
// and a fresh table only arrives on a reply — so the stub must keep dialing
// excluded members rather than going permanently dark against a pool that
// has recovered.
func TestStubRecoversAfterTotalExclusion(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "blackout", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := NewStub("blackout", pool.Endpoints())
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	if _, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Simulate the aftermath of a total transient partition.
	for _, addr := range stub.Members() {
		stub.routes.Exclude(addr)
	}
	if got := len(stub.Members()); got != 0 {
		t.Fatalf("members after blackout = %d, want 0", got)
	}
	rep, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1})
	if err != nil {
		t.Fatalf("invoke after blackout: %v (stub stayed dark against a healthy pool)", err)
	}
	if rep.Total != 2 {
		t.Fatalf("total = %d, want 2", rep.Total)
	}
	if got := len(stub.Members()); got == 0 {
		t.Fatal("exclusions not cleared by the piggybacked table")
	}
}
