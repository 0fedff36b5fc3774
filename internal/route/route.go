// Package route makes routing a first-class, epoch-versioned subsystem
// instead of an emergent property of redirects. The pool runtime stamps
// every membership change with a monotonically increasing epoch and
// publishes a compact Table (epoch, member addresses + UIDs, weights,
// piggybacked load); clients hold a State built from the freshest table
// they have seen and pick a member per call with one of three strategies:
// round-robin (weight-smoothed), power-of-two-choices fed by the
// piggybacked load reports, or consistent-hash key affinity over the
// table's hash ring.
//
// The table travels in-band: requests carry the client's epoch and any
// reply from a member holding a newer table piggybacks the update (see
// internal/transport), so a stale client is corrected on its very next
// reply round-trip instead of bouncing through redirects.
package route

import (
	"hash/fnv"
	"slices"
	"sort"
)

// DefaultWeight is the weight of an unthrottled member. Weights scale the
// share of new invocations a member receives under the round-robin picker;
// the pool runtime lowers a member's weight when its rebalance planning
// decides the member should shed load.
const DefaultWeight = 100

//go:generate go run elasticrmi/cmd/ermi-gen -in route.go -out route_ermi.go

// Member is one routable pool member as published in a Table.
//
//ermi:codec
type Member struct {
	Addr string // skeleton (invocation) address
	UID  int64  // pool-unique member identity; stable across tables
	// Weight is the member's relative share of steered invocations
	// (0..DefaultWeight). Zero removes the member from weighted picking
	// while keeping it resolvable (e.g. for in-flight affinity keys).
	Weight int32
	// Load is the member's pending-invocation count as of the table's
	// publication — the MethodStats-style report piggybacked through the
	// pool's broadcast, consumed by the power-of-two-choices picker.
	Load int32
	// Draining marks a member that still serves in-flight work but must
	// not receive new invocations (scale-down exclusion).
	Draining bool
}

// Table is one epoch-versioned routing view. Tables are immutable once
// published; a newer epoch always supersedes an older one, and equal
// epochs are identical by construction (one publisher per pool). Tables
// travel in the sentinel's pool-state broadcast.
//
//ermi:codec
type Table struct {
	Epoch   uint64
	Members []Member
}

// Clone deep-copies the table (Members is freshly allocated).
func (t Table) Clone() Table {
	out := Table{Epoch: t.Epoch}
	if len(t.Members) > 0 {
		out.Members = append(make([]Member, 0, len(t.Members)), t.Members...)
	}
	return out
}

// Seed builds the epoch-zero bootstrap table a client starts from when all
// it knows is a list of addresses (UIDs unknown). The first reply from any
// member piggybacks the real table and supersedes it.
func Seed(addrs []string) Table {
	t := Table{Members: make([]Member, 0, len(addrs))}
	for _, a := range addrs {
		t.Members = append(t.Members, Member{Addr: a, Weight: DefaultWeight})
	}
	return t
}

// routable reports whether m may receive new invocations at all.
func routable(m *Member) bool { return !m.Draining }

// ringVnodes is the number of virtual nodes per member on the hash ring.
// It is deliberately independent of weight: affinity placement must stay
// stable while the runtime throttles a hot member, or every weight change
// would reshuffle keys and destroy the locality affinity exists to create.
const ringVnodes = 64

// ringPoint is one virtual node: the hash owns the arc ending at it.
type ringPoint struct {
	hash uint64
	idx  int // index into the owning table's Members
}

// Ring is a consistent-hash ring over a table's routable members. Hashes
// are FNV-1a 64 over the member identity (addr '#' vnode), so every client
// that holds the same table derives the same ring and the same key
// placement — one owner per key across the whole client population.
type Ring struct {
	points []ringPoint
}

// BuildRing constructs the ring for t, skipping draining members.
func BuildRing(t Table) *Ring {
	r := &Ring{}
	for i := range t.Members {
		m := &t.Members[i]
		if !routable(m) {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(m.Addr))
		h.Write([]byte{'#'})
		base := h.Sum64()
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix(base, uint64(v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// mix derives the vnode hash from the member's base hash — a cheap
// splitmix64 round, deterministic across processes.
func mix(base, v uint64) uint64 {
	x := base + v*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// KeyHash hashes an affinity key onto the ring's space. The FNV sum is
// finalized through the splitmix64 rounds: FNV alone leaves near-identical
// short keys ("user-01", "user-02", ...) within a few bits of each other,
// which would pile an application's whole keyspace onto one arc.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix(h.Sum64(), 0)
}

// Lookup walks the ring clockwise from key's hash and returns the index
// (into the table's Members) of the first member for which ok returns
// true. A nil ok accepts every member. Returns -1 when the ring is empty
// or nothing qualifies.
func (r *Ring) Lookup(key string, ok func(idx int) bool) int {
	n := len(r.points)
	if n == 0 {
		return -1
	}
	kh := KeyHash(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= kh })
	// The dedup set is allocated lazily: the hot path — the first candidate
	// qualifies — runs allocation-free.
	var seen map[int]struct{}
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if _, dup := seen[p.idx]; dup {
			continue
		}
		if ok == nil || ok(p.idx) {
			return p.idx
		}
		if seen == nil {
			seen = make(map[int]struct{}, 4)
		}
		seen[p.idx] = struct{}{}
	}
	return -1
}

// Owner returns the index of the member owning key with no filter, -1 on
// an empty ring. It is the shared-ownership primitive (kvstore sharding).
func (r *Ring) Owner(key string) int { return r.Lookup(key, nil) }

// Owners returns the indices of the first n distinct members clockwise
// from key's hash — the key's successor-list replica set. Owners(key, n)[0]
// is the primary (identical to Owner(key)); the remainder are the backups
// in promotion order, so replicated stores agree with every client holding
// the same table on both placement and failover order. Fewer than n
// distinct members on the ring yields a shorter list; an empty ring yields
// nil.
func (r *Ring) Owners(key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.AppendOwners(make([]int, 0, n), key, n)
}

// AppendOwners appends Owners(key, n) to dst and returns the extended
// slice: the allocation-free form, for callers that bring a buffer.
func (r *Ring) AppendOwners(dst []int, key string, n int) []int {
	np := len(r.points)
	if np == 0 || n <= 0 {
		return dst
	}
	kh := KeyHash(key)
	start := sort.Search(np, func(i int) bool { return r.points[i].hash >= kh })
	base := len(dst)
	for i := 0; i < np && len(dst)-base < n; i++ {
		p := r.points[(start+i)%np]
		if !slices.Contains(dst[base:], p.idx) {
			dst = append(dst, p.idx)
		}
	}
	return dst
}
