package route

import (
	"fmt"
	"slices"
	"testing"
)

func table(epoch uint64, addrs ...string) Table {
	t := Table{Epoch: epoch}
	for i, a := range addrs {
		t.Members = append(t.Members, Member{Addr: a, UID: int64(i + 1), Weight: DefaultWeight})
	}
	return t
}

func TestAdvanceIsMonotonic(t *testing.T) {
	s := NewState(Seed([]string{"a:1", "b:2"}))
	if s.Epoch() != 0 {
		t.Fatalf("seed epoch = %d", s.Epoch())
	}
	if !s.Advance(table(3, "a:1", "b:2", "c:3")) {
		t.Fatal("newer table rejected")
	}
	if s.Advance(table(3, "x:9")) || s.Advance(table(2, "x:9")) {
		t.Fatal("stale table installed")
	}
	if s.Epoch() != 3 || len(s.table.Members) != 3 {
		t.Fatalf("epoch=%d members=%d", s.Epoch(), len(s.table.Members))
	}
	if s.Advances() != 1 {
		t.Fatalf("advances = %d", s.Advances())
	}
}

func TestExclusionsClearOnAdvance(t *testing.T) {
	s := NewState(table(1, "a:1", "b:2"))
	s.Exclude("a:1")
	if got := s.Addrs(); len(got) != 1 || got[0] != "b:2" {
		t.Fatalf("addrs after exclude = %v", got)
	}
	s.Exclude("b:2")
	if _, ok := s.Pick(RoundRobin); ok {
		t.Fatal("picked from fully excluded table")
	}
	if !s.Advance(table(2, "a:1", "b:2")) {
		t.Fatal("advance rejected")
	}
	if got := s.Addrs(); len(got) != 2 {
		t.Fatalf("exclusions survived epoch advance: %v", got)
	}
}

// TestReadmitClearsExclusionAndPenalty: a successful reply readmits its
// member — Readmit clears both its local exclusion and its overload
// penalty, and leaves other members' marks alone.
func TestReadmitClearsExclusionAndPenalty(t *testing.T) {
	s := NewState(table(1, "a:1", "b:2"))
	s.Exclude("a:1")
	s.MarkLoaded("b:2")
	s.Readmit("a:1")
	if got := s.Addrs(); len(got) != 2 {
		t.Fatalf("addrs after Readmit of an excluded member = %v", got)
	}
	if s.loaded["b:2"] == 0 {
		t.Fatal("Readmit of one member cleared another's penalty")
	}
	s.Readmit("b:2")
	if len(s.excluded) != 0 || len(s.loaded) != 0 {
		t.Fatalf("after Readmit: excluded %v, loaded %v", s.excluded, s.loaded)
	}
}

func TestRoundRobinCyclesAndSkipsDraining(t *testing.T) {
	tab := table(1, "a:1", "b:2", "c:3")
	tab.Members[1].Draining = true
	s := NewState(tab)
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		addr, ok := s.Pick(RoundRobin)
		if !ok {
			t.Fatal("pick failed")
		}
		counts[addr]++
	}
	if counts["b:2"] != 0 {
		t.Fatalf("draining member picked %d times", counts["b:2"])
	}
	if counts["a:1"] != 15 || counts["c:3"] != 15 {
		t.Fatalf("uneven round-robin: %v", counts)
	}
}

func TestWeightedRoundRobinShare(t *testing.T) {
	tab := table(1, "a:1", "b:2")
	tab.Members[0].Weight = 75
	tab.Members[1].Weight = 25
	s := NewState(tab)
	counts := map[string]int{}
	for i := 0; i < 100; i++ {
		addr, _ := s.Pick(RoundRobin)
		counts[addr]++
	}
	if counts["a:1"] != 75 || counts["b:2"] != 25 {
		t.Fatalf("weighted share = %v, want 75/25", counts)
	}
}

func TestZeroWeightFallback(t *testing.T) {
	tab := table(1, "a:1", "b:2")
	tab.Members[0].Weight = 0
	tab.Members[1].Weight = 0
	s := NewState(tab)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		addr, ok := s.Pick(RoundRobin)
		if !ok {
			t.Fatal("all-zero weights must fall back, not fail")
		}
		counts[addr]++
	}
	// The fallback treats the members as equally weighted: it must still
	// rotate, not pin all traffic to one member.
	if counts["a:1"] != 5 || counts["b:2"] != 5 {
		t.Fatalf("all-zero-weight fallback did not rotate: %v", counts)
	}
}

func TestPickAnyIgnoresExclusions(t *testing.T) {
	tab := table(1, "a:1", "b:2", "c:3")
	tab.Members[2].Draining = true
	s := NewState(tab)
	s.Exclude("a:1")
	s.Exclude("b:2")
	if _, ok := s.Pick(RoundRobin); ok {
		t.Fatal("Pick must fail with every member excluded")
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		addr, ok := s.PickAny()
		if !ok {
			t.Fatal("PickAny must ignore exclusions")
		}
		if addr == "c:3" {
			t.Fatal("PickAny returned a draining member")
		}
		seen[addr] = true
	}
	if !seen["a:1"] || !seen["b:2"] {
		t.Fatalf("PickAny did not rotate over excluded members: %v", seen)
	}
}

func TestPowerOfTwoAvoidsLoadedMember(t *testing.T) {
	tab := table(1, "a:1", "b:2", "c:3")
	tab.Members[0].Load = 1000 // hot member per piggybacked report
	s := NewSeededState(tab, 7)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		addr, ok := s.Pick(PowerOfTwo)
		if !ok {
			t.Fatal("pick failed")
		}
		counts[addr]++
	}
	// a:1 is only picked when both probes land on it — at most ~1/3 of the
	// time in expectation is already generous; with 3 members and distinct
	// probes it should never win a comparison.
	if counts["a:1"] != 0 {
		t.Fatalf("p2c picked the hot member %d times: %v", counts["a:1"], counts)
	}
}

func TestPowerOfTwoSeesLocalInflight(t *testing.T) {
	s := NewSeededState(table(1, "a:1", "b:2"), 3)
	leases := make([]Lease, 0, 8)
	for i := 0; i < 8; i++ {
		leases = append(leases, s.Acquire("a:1"))
	}
	for i := 0; i < 50; i++ {
		if addr, _ := s.Pick(PowerOfTwo); addr != "b:2" {
			t.Fatalf("pick %d chose %s despite 8 local in-flight on a:1", i, addr)
		}
	}
	for _, l := range leases {
		l.Release()
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		addr, _ := s.Pick(PowerOfTwo)
		seen[addr] = true
	}
	if !seen["a:1"] {
		t.Fatal("a:1 never picked after releases")
	}
}

func TestAffinityIsStableAndConsistent(t *testing.T) {
	tab := table(1, "a:1", "b:2", "c:3", "d:4")
	s1 := NewState(tab)
	s2 := NewState(tab.Clone())
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		o1, ok1 := s1.PickKeyed(key)
		o2, ok2 := s2.PickKeyed(key)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("key %s: owners differ (%s vs %s)", key, o1, o2)
		}
		if again, _ := s1.PickKeyed(key); again != o1 {
			t.Fatalf("key %s: owner not stable", key)
		}
	}
}

func TestAffinityMinimalReshuffleOnGrowth(t *testing.T) {
	old := NewState(table(1, "a:1", "b:2", "c:3"))
	grown := NewState(table(2, "a:1", "b:2", "c:3", "d:4"))
	moved := 0
	const keys = 500
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%04d", i)
		before, _ := old.PickKeyed(key)
		after, _ := grown.PickKeyed(key)
		if before != after {
			if after != "d:4" {
				t.Fatalf("key %s moved %s -> %s, not to the new member", key, before, after)
			}
			moved++
		}
	}
	// Consistent hashing moves only ~1/n of the keyspace to the new node.
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d/%d keys moved on growth, want roughly %d", moved, keys, keys/4)
	}
}

func TestAffinityFailsOverClockwise(t *testing.T) {
	s := NewState(table(1, "a:1", "b:2", "c:3"))
	key := "pinned"
	owner, _ := s.PickKeyed(key)
	s.Exclude(owner)
	fallback, ok := s.PickKeyed(key)
	if !ok || fallback == owner {
		t.Fatalf("fallback = %q ok=%v", fallback, ok)
	}
	// The fallback is deterministic while the exclusion lasts.
	for i := 0; i < 10; i++ {
		if again, _ := s.PickKeyed(key); again != fallback {
			t.Fatal("fallback owner not stable")
		}
	}
}

func TestRingOwnerDeterminism(t *testing.T) {
	tab := table(1, "n1:1", "n2:1", "n3:1")
	r1, r2 := BuildRing(tab), BuildRing(tab.Clone())
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("ring owner differs for %s", key)
		}
	}
	if BuildRing(Table{}).Owner("x") != -1 {
		t.Fatal("empty ring must return -1")
	}
}

func TestRingOwnersReplicaSet(t *testing.T) {
	tab := table(1, "n1:1", "n2:1", "n3:1", "n4:1")
	r := BuildRing(tab)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		owners := r.Owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s, 3) = %v, want 3 distinct members", key, owners)
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if o < 0 || o >= len(tab.Members) || seen[o] {
				t.Fatalf("Owners(%s, 3) = %v: out of range or duplicate", key, owners)
			}
			seen[o] = true
		}
		// The primary is Owner, and shorter replica sets are prefixes of
		// longer ones (a store can widen R without remapping primaries).
		if owners[0] != r.Owner(key) {
			t.Fatalf("Owners(%s)[0] = %d, Owner = %d", key, owners[0], r.Owner(key))
		}
		if two := r.Owners(key, 2); two[0] != owners[0] || two[1] != owners[1] {
			t.Fatalf("Owners(%s, 2) = %v not a prefix of %v", key, two, owners)
		}
	}
	// Asking for more replicas than members returns every member once.
	if got := r.Owners("k", 10); len(got) != 4 {
		t.Fatalf("Owners(k, 10) = %v, want all 4 members", got)
	}
	if BuildRing(Table{}).Owners("x", 2) != nil {
		t.Fatal("empty ring must return nil")
	}
}

// TestAppendOwnersAllocsNothing pins the replica-set lookup a replicated
// write makes at zero allocations when the caller brings the buffer, and
// checks it agrees with Owners.
func TestAppendOwnersAllocsNothing(t *testing.T) {
	r := BuildRing(table(1, "a:1", "b:2", "c:3"))
	var buf [4]int
	if got, want := r.AppendOwners(buf[:0], "C$f01", 2), r.Owners("C$f01", 2); !slices.Equal(got, want) {
		t.Fatalf("AppendOwners = %v, Owners = %v", got, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := testing.AllocsPerRun(1000, func() { r.AppendOwners(buf[:0], "C$f01", 3) }); n != 0 {
		t.Fatalf("AppendOwners = %v allocs, want 0", n)
	}
}

// TestPickAcquireReleaseAllocsNothing pins the per-attempt routing cost of
// an invocation at zero allocations, for both strategies.
func TestPickAcquireReleaseAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewSeededState(table(1, "a:1", "b:2", "c:3"), 1)
	for _, strategy := range []Strategy{RoundRobin, PowerOfTwo} {
		allocs := testing.AllocsPerRun(1000, func() {
			addr, ok := s.Pick(strategy)
			if !ok {
				t.Fatal("pick failed")
			}
			s.Acquire(addr).Release()
		})
		if allocs != 0 {
			t.Fatalf("strategy %d: Pick+Acquire+Release = %v allocs, want 0", strategy, allocs)
		}
	}
}
