package paxos_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/apps/paxos"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

func startConsensus(t *testing.T, minPool, maxPool int) (*core.Pool, *core.Stub) {
	t.Helper()
	env := ermitest.New(t, 10)
	pool := env.StartPool(t, core.Config{
		Name: "paxos", MinPoolSize: minPool, MaxPoolSize: maxPool,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, paxos.New(paxos.Config{}))
	stub := env.Stub(t, "paxos")
	return pool, stub
}

func TestProposeDecides(t *testing.T) {
	_, stub := startConsensus(t, 3, 5)
	rep, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](stub, paxos.MethodPropose,
		paxos.ProposeArgs{Value: []byte("v1")})
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if string(rep.Value) != "v1" {
		t.Fatalf("decided %q, want v1", rep.Value)
	}
	if rep.Slot <= 0 {
		t.Fatalf("slot = %d, want > 0", rep.Slot)
	}
	got, err := core.Call[paxos.GetArgs, paxos.GetReply](stub, paxos.MethodGet, paxos.GetArgs{Slot: rep.Slot})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Value) != "v1" {
		t.Fatalf("Get(%d) = %q, want v1", rep.Slot, got.Value)
	}
}

func TestGetUndecidedSlot(t *testing.T) {
	_, stub := startConsensus(t, 3, 3)
	_, err := core.Call[paxos.GetArgs, paxos.GetReply](stub, paxos.MethodGet, paxos.GetArgs{Slot: 999})
	if err == nil {
		t.Fatal("expected error for undecided slot")
	}
	if errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("app error misclassified as unavailability: %v", err)
	}
}

func TestSequentialProposalsFillLog(t *testing.T) {
	_, stub := startConsensus(t, 3, 5)
	const n = 10
	slots := make(map[int64]string, n)
	for i := 0; i < n; i++ {
		val := fmt.Sprintf("cmd-%d", i)
		rep, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](stub, paxos.MethodPropose,
			paxos.ProposeArgs{Value: []byte(val)})
		if err != nil {
			t.Fatalf("Propose(%s): %v", val, err)
		}
		if prev, dup := slots[rep.Slot]; dup {
			t.Fatalf("slot %d decided twice: %q then %q", rep.Slot, prev, val)
		}
		slots[rep.Slot] = val
	}
	st, err := core.Call[core.Empty, paxos.StatusReply](stub, paxos.MethodStatus, core.Empty{})
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.Decided < n {
		t.Fatalf("decided = %d, want >= %d", st.Decided, n)
	}
}

func TestConcurrentProposalsAllDecideDistinctSlots(t *testing.T) {
	_, stub := startConsensus(t, 3, 5)
	const workers = 8
	var mu sync.Mutex
	decided := make(map[int64]string)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := fmt.Sprintf("w%d", w)
			rep, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](stub, paxos.MethodPropose,
				paxos.ProposeArgs{Value: []byte(val)})
			if err != nil {
				errCh <- err
				return
			}
			if string(rep.Value) != val {
				errCh <- fmt.Errorf("proposer %d: decided %q want %q", w, rep.Value, val)
				return
			}
			mu.Lock()
			if prev, dup := decided[rep.Slot]; dup {
				errCh <- fmt.Errorf("slot %d claimed by %q and %q", rep.Slot, prev, val)
			}
			decided[rep.Slot] = val
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if len(decided) != workers {
		t.Fatalf("decided %d slots, want %d", len(decided), workers)
	}
}

// TestSingleDecreeSafety drives competing proposers at the SAME slot and
// asserts the fundamental Paxos invariant: at most one value is chosen.
func TestSingleDecreeSafety(t *testing.T) {
	env := ermitest.New(t, 10)

	// Capture the replicas as the factory creates them so the test can call
	// ProposeAt directly (bypassing the slot allocator).
	var mu sync.Mutex
	var replicas []*paxos.Replica
	base := paxos.New(paxos.Config{RoundTimeout: time.Second})
	factory := func(ctx *core.MemberContext) (core.Object, error) {
		obj, err := base(ctx)
		if err != nil {
			return nil, err
		}
		r, ok := obj.(*paxos.Replica)
		if !ok {
			return nil, fmt.Errorf("unexpected object type %T", obj)
		}
		mu.Lock()
		replicas = append(replicas, r)
		mu.Unlock()
		return obj, nil
	}
	env.StartPool(t, core.Config{
		Name: "paxos-safety", MinPoolSize: 5, MaxPoolSize: 5,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory)

	mu.Lock()
	rs := append([]*paxos.Replica(nil), replicas...)
	mu.Unlock()
	if len(rs) != 5 {
		t.Fatalf("captured %d replicas, want 5", len(rs))
	}

	const slot = int64(7)
	results := make(chan string, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *paxos.Replica) {
			defer wg.Done()
			v, err := r.ProposeAt(slot, []byte(fmt.Sprintf("candidate-%d", i)))
			if err != nil {
				return // losing a round is fine; deciding two values is not
			}
			results <- string(v)
		}(i, r)
	}
	wg.Wait()
	close(results)
	var first string
	n := 0
	for v := range results {
		n++
		if first == "" {
			first = v
		} else if v != first {
			t.Fatalf("safety violation: slot %d decided %q and %q", slot, first, v)
		}
	}
	if n == 0 {
		t.Fatal("no proposer completed: expected at least one decision")
	}
}

func TestNewMemberLearnsHistoryFromLedger(t *testing.T) {
	pool, stub := startConsensus(t, 3, 6)
	rep, err := core.Call[paxos.ProposeArgs, paxos.ProposeReply](stub, paxos.MethodPropose,
		paxos.ProposeArgs{Value: []byte("old-decision")})
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	if err := pool.Resize(2); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	pool.BroadcastNow()
	// Hammer Get until every member (round-robin) has answered once.
	for i := 0; i < pool.Size()*2; i++ {
		got, err := core.Call[paxos.GetArgs, paxos.GetReply](stub, paxos.MethodGet, paxos.GetArgs{Slot: rep.Slot})
		if err != nil {
			t.Fatalf("Get via member %d: %v", i, err)
		}
		if string(got.Value) != "old-decision" {
			t.Fatalf("Get = %q, want old-decision", got.Value)
		}
	}
}
