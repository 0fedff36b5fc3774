package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/kvstore"
)

// testEnv bundles the substrates a pool needs.
type testEnv struct {
	cluster *cluster.Manager
	store   *kvstore.Cluster
	reg     *RegistryServer
	regCli  *RegistryClient
}

func newTestEnv(t *testing.T, slices int) *testEnv {
	t.Helper()
	mgr, err := cluster.New(cluster.Config{Nodes: slices, SlicesPerNode: 1})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	store, err := kvstore.NewCluster(1, nil)
	if err != nil {
		t.Fatalf("kvstore: %v", err)
	}
	reg, err := NewRegistryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	regCli, err := DialRegistry(reg.Addr())
	if err != nil {
		t.Fatalf("registry client: %v", err)
	}
	t.Cleanup(func() {
		regCli.Close()
		reg.Close()
		store.Close()
		mgr.Close()
	})
	return &testEnv{cluster: mgr, store: store, reg: reg, regCli: regCli}
}

func (e *testEnv) deps() Deps {
	return Deps{Cluster: e.cluster, Store: e.store, Registry: e.regCli}
}

// counterObject is a trivial elastic object: a shared counter.
type counterObject struct {
	ctx *MemberContext
	mux *Mux
}

func newCounterFactory() Factory {
	return func(ctx *MemberContext) (Object, error) {
		o := &counterObject{ctx: ctx, mux: NewMux()}
		Handle(o.mux, "Add", func(a addArgs) (addReply, error) {
			total, err := ctx.State.AddInt("total", a.N)
			if err != nil {
				return addReply{}, err
			}
			return addReply{Total: total}, nil
		})
		Handle(o.mux, "Get", func(Empty) (addReply, error) {
			total, err := ctx.State.GetInt("total")
			if err != nil {
				return addReply{}, err
			}
			return addReply{Total: total}, nil
		})
		Handle(o.mux, "WhoAmI", func(Empty) (uidReply, error) {
			return uidReply{UID: ctx.UID}, nil
		})
		return o, nil
	}
}

func (o *counterObject) HandleCall(method string, arg []byte) ([]byte, error) {
	return o.mux.HandleCall(method, arg)
}

func newTestPool(t *testing.T, env *testEnv, cfg Config) *Pool {
	t.Helper()
	if cfg.DrainTimeout == 0 {
		// Shrinks in tests should not sit out the production drain bound.
		cfg.DrainTimeout = time.Second
	}
	pool, err := NewPool(cfg, newCounterFactory(), env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

func TestPoolInstantiatesMinMembers(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 3, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	if got := pool.Size(); got != 3 {
		t.Fatalf("pool size = %d, want 3", got)
	}
	if env.cluster.InUse() != 3 {
		t.Fatalf("slices in use = %d, want 3", env.cluster.InUse())
	}
	members := pool.Members()
	for i := 1; i < len(members); i++ {
		if members[i-1].UID >= members[i].UID {
			t.Fatalf("members not sorted by UID: %+v", members)
		}
	}
}

func TestPoolRejectsTooSmallMin(t *testing.T) {
	env := newTestEnv(t, 4)
	_, err := NewPool(Config{Name: "x", MinPoolSize: 1, MaxPoolSize: 3}, newCounterFactory(), env.deps())
	if err == nil {
		t.Fatal("expected error for MinPoolSize < 2")
	}
}

func TestStubInvokeAndSharedState(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := LookupStub("counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	for i := 1; i <= 10; i++ {
		rep, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1})
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if rep.Total != int64(i) {
			t.Fatalf("total = %d, want %d", rep.Total, i)
		}
	}
	// Shared state must be visible regardless of which member executes.
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != 10 {
		t.Fatalf("shared total = %d, want 10", rep.Total)
	}
	_ = pool
}

func TestStubBalancesAcrossMembers(t *testing.T) {
	env := newTestEnv(t, 8)
	newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 3, MaxPoolSize: 3,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := LookupStub("counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	seen := make(map[int64]int)
	for i := 0; i < 30; i++ {
		rep, err := Call[Empty, uidReply](stub, "WhoAmI", Empty{})
		if err != nil {
			t.Fatalf("WhoAmI: %v", err)
		}
		seen[rep.UID]++
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin hit %d members, want 3: %v", len(seen), seen)
	}
	for uid, n := range seen {
		if n != 10 {
			t.Fatalf("member %d got %d calls, want 10 (round robin)", uid, n)
		}
	}
}

func TestManualResizeGrowAndShrink(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	if err := pool.Resize(3); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := pool.Size(); got != 5 {
		t.Fatalf("size after grow = %d, want 5", got)
	}
	if err := pool.Resize(-2); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := pool.Size(); got != 3 {
		t.Fatalf("size after shrink = %d, want 3", got)
	}
	if env.cluster.InUse() != 3 {
		t.Fatalf("slices in use = %d, want 3", env.cluster.InUse())
	}
	// Resize below the minimum clamps at MinPoolSize.
	if err := pool.Resize(-10); err != nil {
		t.Fatalf("shrink clamp: %v", err)
	}
	if got := pool.Size(); got != 2 {
		t.Fatalf("size after clamped shrink = %d, want 2", got)
	}
}

func TestInvocationsSurviveScaleDown(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	if err := pool.Resize(4); err != nil {
		t.Fatalf("grow: %v", err)
	}
	stub, err := LookupStub("counter", env.regCli)
	if err != nil {
		t.Fatalf("stub: %v", err)
	}
	defer stub.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	stopCh := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				if _, err := Call[addArgs, addReply](stub, "Add", addArgs{N: 1}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := pool.Resize(-4); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stopCh)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("invocation failed during scale-down: %v", err)
	}
	if got := pool.Size(); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
}

func TestPoolExhaustedClusterGrantsFewer(t *testing.T) {
	env := newTestEnv(t, 3)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 2, MaxPoolSize: 10,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	// Cluster has 3 slices; growing by 5 should grant only 1 more.
	if err := pool.Resize(5); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if got := pool.Size(); got != 3 {
		t.Fatalf("size = %d, want 3 (cluster capacity)", got)
	}
	// Fully exhausted: further growth reports no capacity.
	err := pool.Resize(1)
	if err == nil || !errors.Is(err, cluster.ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestRegistryRebindTracksMembership(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "counter", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	eps, err := env.regCli.Lookup("counter")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if len(eps) != 2 {
		t.Fatalf("bound endpoints = %d, want 2", len(eps))
	}
	if eps[0] != pool.SentinelAddr() {
		t.Fatalf("first endpoint %s is not the sentinel %s", eps[0], pool.SentinelAddr())
	}
	if err := pool.Resize(2); err != nil {
		t.Fatalf("grow: %v", err)
	}
	eps, err = env.regCli.Lookup("counter")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if len(eps) != 4 {
		t.Fatalf("bound endpoints = %d, want 4", len(eps))
	}
}
