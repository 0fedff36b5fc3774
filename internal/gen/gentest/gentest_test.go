package gentest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

// TestGeneratedStubAndSkeleton runs the checked-in generator output against
// a live pool: the typed stub invokes through the generated skeleton table
// and shared state behaves as one object.
func TestGeneratedStubAndSkeleton(t *testing.T) {
	env := ermitest.New(t, 8)
	env.StartPool(t, core.Config{
		Name: "gen-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, NewCounterFactory(NewImpl))

	svc, err := LookupCounter("gen-counter", env.RegCli)
	if err != nil {
		t.Fatalf("LookupCounter: %v", err)
	}
	defer svc.Close()

	for i := int64(1); i <= 5; i++ {
		rep, err := svc.Bump(BumpArgs{N: 1})
		if err != nil {
			t.Fatalf("Bump: %v", err)
		}
		if rep.Total != i {
			t.Fatalf("total = %d, want %d", rep.Total, i)
		}
	}
	rep, err := svc.Peek(PeekArgs{})
	if err != nil || rep.Total != 5 {
		t.Fatalf("Peek = %d, %v", rep.Total, err)
	}
}

// TestGeneratedFactoryForwardsPoolSizer: the implementation implements
// core.PoolSizer, so the generated factory must produce objects the runtime
// recognizes as fine-grained — and the pool must follow their deltas.
func TestGeneratedFactoryForwardsPoolSizer(t *testing.T) {
	env := ermitest.New(t, 8)
	var mu sync.Mutex
	var impls []*Impl
	factory := NewCounterFactory(func(ctx *core.MemberContext) (Counter, error) {
		impl := &Impl{ctx: ctx}
		mu.Lock()
		impls = append(impls, impl)
		mu.Unlock()
		return impl, nil
	})
	pool := env.StartPool(t, core.Config{
		Name: "gen-sized", MinPoolSize: 2, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory)
	if pool.Policy() != "fine" {
		t.Fatalf("policy = %s, want fine (PoolSizer forwarded through generated factory)", pool.Policy())
	}
	mu.Lock()
	for _, impl := range impls {
		impl.Delta.Store(1)
	}
	mu.Unlock()
	pool.Step()
	if got := pool.Size(); got != 3 {
		t.Fatalf("size = %d, want 3 (generated object forwarded ChangePoolSize)", got)
	}
}

// TestGeneratedAffinityVariant drives the //ermi:affinity output against a
// live pool: same-key invocations through TagWithAffinity must land on the
// same member, and the keyspace must spread across more than one member.
func TestGeneratedAffinityVariant(t *testing.T) {
	env := ermitest.New(t, 8)
	env.StartPool(t, core.Config{
		Name: "gen-affinity", MinPoolSize: 3, MaxPoolSize: 3,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, NewCounterFactory(NewImpl))

	svc, err := LookupCounter("gen-affinity", env.RegCli)
	if err != nil {
		t.Fatalf("LookupCounter: %v", err)
	}
	defer svc.Close()
	// One plain call lands the piggybacked routing table (the seed table
	// carries no UIDs to hash); affinity placement is stable from then on.
	if _, err := svc.Tag(TagArgs{Key: "warmup", Value: "x"}); err != nil {
		t.Fatalf("warmup Tag: %v", err)
	}

	owners := make(map[string]int64)
	for round := 0; round < 3; round++ {
		for k := 0; k < 16; k++ {
			key := fmt.Sprintf("key-%02d", k)
			rep, err := svc.TagWithAffinity(TagArgs{Key: key, Value: "v"})
			if err != nil {
				t.Fatalf("TagWithAffinity(%s): %v", key, err)
			}
			if uid, seen := owners[key]; seen && uid != rep.MemberUID {
				t.Fatalf("key %s moved from member %d to %d with no view change", key, uid, rep.MemberUID)
			}
			owners[key] = rep.MemberUID
		}
	}
	distinct := make(map[int64]bool)
	for _, uid := range owners {
		distinct[uid] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d keys owned by one member; affinity is not spreading", len(owners))
	}
}
