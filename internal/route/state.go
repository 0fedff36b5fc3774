package route

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Strategy selects how Pick chooses among the table's routable members.
type Strategy int

const (
	// RoundRobin cycles through members, smoothed by weight (the legacy
	// default): a member with half the weight receives half the picks,
	// interleaved rather than bursted.
	RoundRobin Strategy = iota
	// PowerOfTwo samples two distinct members and picks the less loaded
	// one, where load is the table's piggybacked pending count plus the
	// picker's own in-flight count toward that member. Two random probes
	// are enough to avoid hot members with near-best-of-N quality.
	PowerOfTwo
)

// State is a client's view of one pool's routing: the freshest Table it
// has seen, the ring derived from it, per-member in-flight accounting and
// local exclusions (members observed unreachable since the table's epoch).
// All methods are safe for concurrent use.
type State struct {
	epoch atomic.Uint64 // mirror of table.Epoch for lock-free stamping

	mu       sync.Mutex
	table    Table
	ring     *Ring
	excluded map[string]struct{}
	loaded   map[string]int64         // local overload penalties (MarkLoaded)
	inflight map[string]*atomic.Int64 // persists across table installs
	rng      *rand.Rand               // per-instance: no global lock, seedable tests
	rrCur    []int64                  // smooth-WRR current weights, parallel to table.Members
	anyNext  int                      // rotation cursor for PickAny
	advances uint64                   // epoch transitions observed (telemetry/tests)
}

// NewState builds a state holding the given bootstrap table.
func NewState(t Table) *State {
	s := &State{
		excluded: make(map[string]struct{}),
		loaded:   make(map[string]int64),
		inflight: make(map[string]*atomic.Int64),
		rng:      rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())),
	}
	s.install(t)
	return s
}

// NewSeededState is NewState with a deterministic random source (tests).
func NewSeededState(t Table, seed uint64) *State {
	s := NewState(t)
	s.mu.Lock()
	s.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	s.mu.Unlock()
	return s
}

// install replaces the table unconditionally. Caller holds s.mu or is the
// constructor.
func (s *State) install(t Table) {
	// install runs on the transport read loop (piggybacked updates) while
	// holding the mutex every Pick needs, so it stays O(n): one index map
	// serves both the rotation carry-over and the in-flight cleanup.
	oldIdx := make(map[string]int, len(s.table.Members))
	for i := range s.table.Members {
		oldIdx[s.table.Members[i].Addr] = i
	}
	oldCur := s.rrCur
	s.table = t.Clone()
	s.ring = BuildRing(s.table)
	s.excluded = make(map[string]struct{})
	// Overload penalties die with the old epoch: the new table carries fresh
	// load reports, and a stale penalty would shun a member that recovered.
	s.loaded = make(map[string]int64)
	// Round-robin rotation carries over for members surviving the install:
	// load-refresh tables arrive continuously, and restarting the rotation
	// on each would permanently bias traffic toward the first member.
	s.rrCur = make([]int64, len(s.table.Members))
	current := make(map[string]struct{}, len(s.table.Members))
	for i := range s.table.Members {
		addr := s.table.Members[i].Addr
		current[addr] = struct{}{}
		if j, ok := oldIdx[addr]; ok {
			s.rrCur[i] = oldCur[j]
		}
	}
	// Drop in-flight counters for members that left the table; a counter
	// still referenced by an outstanding lease stays correct,
	// it is just no longer consulted.
	for addr := range s.inflight {
		if _, ok := current[addr]; !ok {
			delete(s.inflight, addr)
		}
	}
	s.epoch.Store(t.Epoch)
}

// Epoch returns the current table's epoch without locking; it is what the
// transport stamps on every outgoing request.
func (s *State) Epoch() uint64 { return s.epoch.Load() }

// Advance installs t if it is strictly newer than the current table and
// reports whether it did. Installing clears local exclusions: the new
// epoch's membership is authoritative, and a member that was locally
// tombstoned but survived into the new view deserves another chance.
func (s *State) Advance(t Table) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Epoch <= s.table.Epoch {
		return false
	}
	s.install(t)
	s.advances++
	return true
}

// Advances returns how many epoch transitions this state has installed.
func (s *State) Advances() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.advances
}

// Len returns the current table's member count without copying it (the
// per-invocation attempts bound reads it on every call).
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table.Members)
}

// Exclude locally tombstones addr (observed unreachable). The exclusion
// lasts until a newer table is installed or a Readmit proves it wrong.
func (s *State) Exclude(addr string) {
	s.mu.Lock()
	s.excluded[addr] = struct{}{}
	s.mu.Unlock()
}

// Readmit drops addr's local exclusion and overload penalty. Callers invoke
// it on a successful reply from the member: the reply itself proves the
// member reachable (and no longer shedding), and waiting for a newer table
// instead would leave the member dark for as long as the pool's epoch
// stands still.
func (s *State) Readmit(addr string) {
	s.mu.Lock()
	delete(s.excluded, addr)
	delete(s.loaded, addr)
	s.mu.Unlock()
}

// markLoadedPenalty is the effective-load surcharge one overload reply adds:
// heavier than a single in-flight invocation (an explicit shed is stronger
// evidence of saturation than a queued call), light enough that the member
// re-enters rotation as soon as its neighbours climb.
const markLoadedPenalty = 4

// MarkLoaded records that addr answered with an overload shed: the member is
// alive — excluding it would be wrong — but saturated, so its effective load
// is bumped and the power-of-two picker steers new work at less-loaded
// members until a success (Readmit) or a fresh table clears the penalty.
func (s *State) MarkLoaded(addr string) {
	s.mu.Lock()
	s.loaded[addr] += markLoadedPenalty
	s.mu.Unlock()
}

// Addrs returns the addresses currently eligible for picking (routable and
// not locally excluded).
func (s *State) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.table.Members))
	for i := range s.table.Members {
		if s.usableLocked(i) {
			out = append(out, s.table.Members[i].Addr)
		}
	}
	return out
}

// usableLocked reports whether member i may be picked right now.
func (s *State) usableLocked(i int) bool {
	m := &s.table.Members[i]
	if !routable(m) {
		return false
	}
	_, dead := s.excluded[m.Addr]
	return !dead
}

// Lease is one in-flight invocation recorded by Acquire. It is a value,
// so recording an attempt allocates nothing.
type Lease struct {
	ctr *atomic.Int64
}

// Release ends the lease. Call it exactly once, when the attempt is over.
func (l Lease) Release() { l.ctr.Add(-1) }

// Acquire records one in-flight invocation toward addr and returns its
// lease. The count feeds the power-of-two picker, so callers should hold
// the lease exactly for the duration of the attempt.
func (s *State) Acquire(addr string) Lease {
	s.mu.Lock()
	ctr, ok := s.inflight[addr]
	if !ok {
		ctr = new(atomic.Int64)
		s.inflight[addr] = ctr
	}
	s.mu.Unlock()
	ctr.Add(1)
	return Lease{ctr: ctr}
}

// loadLocked is member i's effective load: the piggybacked report plus
// local in-flight work the report cannot see yet, plus the overload
// penalties of shed replies observed since the table arrived.
func (s *State) loadLocked(i int) int64 {
	m := &s.table.Members[i]
	load := int64(m.Load)
	if ctr, ok := s.inflight[m.Addr]; ok {
		load += ctr.Load()
	}
	load += s.loaded[m.Addr]
	return load
}

// Pick selects one member address under the strategy. ok=false means no
// member is currently usable (all draining or excluded).
func (s *State) Pick(strategy Strategy) (string, bool) {
	var buf [16]int
	s.mu.Lock()
	defer s.mu.Unlock()
	usable := s.usableIdx(buf[:0])
	if len(usable) == 0 {
		return "", false
	}
	if len(usable) == 1 {
		return s.table.Members[usable[0]].Addr, true
	}
	var idx int
	switch strategy {
	case PowerOfTwo:
		ai := s.rng.IntN(len(usable))
		bi := s.rng.IntN(len(usable) - 1)
		if bi == ai {
			bi = len(usable) - 1
		}
		a, b := usable[ai], usable[bi]
		idx = a
		if s.loadLocked(b) < s.loadLocked(a) {
			idx = b
		}
	default:
		idx = s.smoothWRRLocked(usable)
	}
	return s.table.Members[idx].Addr, true
}

// usableIdx appends the indices Pick may choose from to out (a caller's
// stack buffer, so pools of up to its capacity pick without allocating).
// Caller holds s.mu.
func (s *State) usableIdx(out []int) []int {
	for i := range s.table.Members {
		if s.usableLocked(i) && s.table.Members[i].Weight > 0 {
			out = append(out, i)
		}
	}
	if len(out) > 0 {
		return out
	}
	// Every routable member is weighted to zero (a pathological plan):
	// fall back to ignoring weights rather than failing the call.
	for i := range s.table.Members {
		if s.usableLocked(i) {
			out = append(out, i)
		}
	}
	return out
}

// smoothWRRLocked runs one step of smooth weighted round-robin (the nginx
// algorithm): add each candidate's weight to its current score, pick the
// highest score, subtract the total. Equal weights degrade to plain
// round-robin; unequal weights interleave proportionally.
func (s *State) smoothWRRLocked(usable []int) int {
	var total int64
	best := usable[0]
	for _, i := range usable {
		w := int64(s.table.Members[i].Weight)
		if w < 1 {
			// Only reachable through the all-weights-zero fallback of
			// usableIdx: treat the candidates as equally weighted so the
			// rotation still rotates instead of pinning the first argmax.
			w = 1
		}
		s.rrCur[i] += w
		total += w
		if s.rrCur[i] > s.rrCur[best] {
			best = i
		}
	}
	s.rrCur[best] -= total
	return best
}

// PickAny returns a routable member ignoring local exclusions, rotating
// through the table. It is the caller's last resort when every member is
// excluded: exclusions only clear when a newer table arrives, and a newer
// table only arrives piggybacked on a reply — so after a transient
// total outage somebody has to send one more request, or the state would
// stay dark against a recovered pool forever.
func (s *State) PickAny() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.table.Members)
	for i := 0; i < n; i++ {
		idx := (s.anyNext + i) % n
		if routable(&s.table.Members[idx]) {
			s.anyNext = (idx + 1) % n
			return s.table.Members[idx].Addr, true
		}
	}
	return "", false
}

// PickKeyed selects the consistent-hash owner of key among usable members:
// the ring owner when healthy, else the next member clockwise, so a key's
// traffic moves to exactly one fallback while its owner is out.
func (s *State) PickKeyed(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.ring.Lookup(key, s.usableLocked)
	if idx < 0 {
		return "", false
	}
	return s.table.Members[idx].Addr, true
}
