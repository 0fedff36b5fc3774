// Package core implements ElasticRMI itself — the paper's contribution: a
// runtime for elastic remote objects. An elastic class is instantiated into
// a pool of objects, one per cluster slice; the pool behaves toward clients
// as a single remote object. Stubs (Stub) perform client-side load
// balancing; skeletons (one per member) dispatch invocations, measure
// workload and support drain/redirect on scale-down; the sentinel (the
// lowest-UID member) serves discovery, broadcasts pool state and directs
// server-side rebalancing; the Pool manager grows and shrinks the pool every
// burst interval according to a scaling policy (implicit CPU-based, coarse
// CPU/RAM thresholds, fine-grained ChangePoolSize, or application-level
// Decider).
//
// Invocation is synchronous (Stub.Invoke, Call, and their keyed forms) or
// asynchronous: InvokeAsync returns a future so one caller can pipeline
// many invocations against the pool (see async.go); concurrent invocations
// bound for the same member coalesce in that connection's write buffer
// (internal/transport).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elasticrmi/internal/metrics"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// Exported errors.
var (
	// ErrPoolClosed is returned for operations on a closed pool or stub.
	ErrPoolClosed = errors.New("core: pool closed")
	// ErrUnavailable is returned by a stub when no pool member is reachable.
	ErrUnavailable = errors.New("core: elastic object pool unavailable")
	// ErrNotBound is returned by registry lookups for unknown names.
	ErrNotBound = errors.New("core: name not bound")
)

// Object is one member instance of an elastic class: the application code
// that executes remote method invocations on one JVM/slice in the paper's
// terms. Implementations are free to keep local state; shared state must go
// through MemberContext.State (the external key-value store, §4.1).
type Object interface {
	// HandleCall executes one remote method invocation.
	HandleCall(method string, arg []byte) ([]byte, error)
}

// RequestHandler is implemented by Objects that want the full transport
// request instead of raw bytes. The skeleton prefers this path: handlers
// can Retain the request when decoded arguments alias the frame's payload
// (zero-copy []byte views) and set ReleaseReply so codec-encoded replies
// are returned to the payload arena once written. The Mux implements it.
type RequestHandler interface {
	HandleRequest(req *transport.Request) ([]byte, error)
}

// Closer is implemented by Objects that need teardown when their member is
// removed from the pool.
type Closer interface {
	Close() error
}

// PoolSizer is the fine-grained elasticity hook of Fig. 3: the runtime polls
// every member each burst interval; the returned deltas are averaged to
// decide how many objects to add (positive) or remove (negative). If the
// application object implements PoolSizer, CPU/RAM-threshold scaling is
// disabled (§3.3: "ElasticRMI allows classes to use only a single decision
// mechanism").
type PoolSizer interface {
	ChangePoolSize() int
}

// RAMGauge is implemented by Objects that can report their memory
// utilization in percent of the slice reservation.
type RAMGauge interface {
	RAMUsage() float64
}

// Decider makes application-level scaling decisions spanning multiple
// elastic pools (§3.3, the Decider class). It returns the desired pool size.
type Decider interface {
	DesiredPoolSize(poolName string, current int) int
}

// Factory creates the application object for a new pool member.
type Factory func(ctx *MemberContext) (Object, error)

// Config mirrors the ElasticObject configuration surface of Fig. 3.
type Config struct {
	// Name is the elastic class name: the registry binding and the shared
	// state namespace.
	Name string
	// MinPoolSize is the minimum number of members (>= 2, §4.2).
	MinPoolSize int
	// MaxPoolSize is the maximum number of members.
	MaxPoolSize int
	// BurstInterval is how often scaling decisions are made. Default 60s
	// (§3.2).
	BurstInterval time.Duration
	// CPUIncrThreshold / CPUDecrThreshold are the average-CPU% bounds that
	// trigger adding/removing one object. Defaults 90 / 60 (§3.2, implicit
	// elasticity).
	CPUIncrThreshold float64
	CPUDecrThreshold float64
	// RAMIncrThreshold / RAMDecrThreshold optionally add memory conditions,
	// combined with CPU using logical OR (§3.3). Zero disables them.
	RAMIncrThreshold float64
	RAMDecrThreshold float64
	// Decider, when non-nil, overrides all other scaling mechanisms.
	Decider Decider
	// Clock is the time source; nil means wall clock.
	Clock simclock.Clock
	// SliceCPUs is the CPU capacity of each member's slice used for
	// utilization accounting. Default 2 (the paper's example reservation).
	SliceCPUs float64
	// DrainTimeout bounds how long a removed member waits for pending
	// invocations before shutdown (§2.5). Default 10s; tests use a short
	// value to keep scale-down fast.
	DrainTimeout time.Duration
	// DisableBroadcast turns off the periodic pool-state broadcast, which
	// republishes load reports and rebalance weights to every skeleton
	// (used by tests that want routing tables to change only with the
	// membership).
	DisableBroadcast bool
	// MaxConcurrentInvocations bounds how many invocations one member
	// executes concurrently (its skeleton's admission gate); 0 selects the
	// transport default. Set it to the slice's real service parallelism so
	// overload is shed early instead of queued into collapse.
	MaxConcurrentInvocations int
	// MaxQueuedInvocations bounds how many admitted invocations may wait
	// for a free execution slot per member; excess arrivals are shed with an
	// overload reply (stubs retry on a less-loaded member, and shed counts
	// feed the scaling policies). 0 selects the transport default.
	MaxQueuedInvocations int
}

func (c *Config) validate() error {
	if c.Name == "" {
		return errors.New("core: Config.Name is required")
	}
	if c.MinPoolSize < 2 {
		return fmt.Errorf("core: MinPoolSize must be >= 2 (got %d): an elastic class can only be instantiated with a minimum of two objects", c.MinPoolSize)
	}
	if c.MaxPoolSize < c.MinPoolSize {
		return fmt.Errorf("core: MaxPoolSize %d < MinPoolSize %d", c.MaxPoolSize, c.MinPoolSize)
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BurstInterval == 0 {
		out.BurstInterval = 60 * time.Second
	}
	if out.CPUIncrThreshold == 0 {
		out.CPUIncrThreshold = 90
	}
	if out.CPUDecrThreshold == 0 {
		out.CPUDecrThreshold = 60
	}
	if out.Clock == nil {
		out.Clock = simclock.Real{}
	}
	if out.SliceCPUs == 0 {
		out.SliceCPUs = 2
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = 10 * time.Second
	}
	return out
}

// MethodStat re-exports the per-method statistics type for applications.
type MethodStat = metrics.MethodStat

// MemberContext gives an application Object access to its runtime
// surroundings: shared state, workload statistics (getMethodCallStats,
// getAvgCPUUsage, getAvgRAMUsage of Fig. 3) and pool metadata.
type MemberContext struct {
	// UID is the member's monotonically increasing unique identifier.
	UID int64
	// PoolName is the elastic class name.
	PoolName string
	// State is the shared-state accessor backed by the external key-value
	// store.
	State *State
	// Clock is the pool's time source.
	Clock simclock.Clock

	statsFn    func() map[string]metrics.MethodStat
	usageFn    func() metrics.Usage
	poolSizeFn func() int
	rosterFn   func() []MemberInfo
	peerSendFn func(to, topic string, payload []byte) error
	addr       string

	peerMu      sync.Mutex
	peerHandler func(from, topic string, payload []byte)
}

// MethodCallStats returns the average number of calls and latency of each
// remote method over the last completed burst interval.
func (c *MemberContext) MethodCallStats() map[string]MethodStat {
	if c.statsFn == nil {
		return map[string]MethodStat{}
	}
	return c.statsFn()
}

// AvgCPUUsage returns this member's CPU utilization (percent) averaged over
// the last completed burst interval.
func (c *MemberContext) AvgCPUUsage() float64 {
	if c.usageFn == nil {
		return 0
	}
	return c.usageFn().CPU
}

// AvgRAMUsage returns this member's memory utilization (percent) over the
// last completed burst interval.
func (c *MemberContext) AvgRAMUsage() float64 {
	if c.usageFn == nil {
		return 0
	}
	return c.usageFn().RAM
}

// PoolSize returns the current number of members in the pool.
func (c *MemberContext) PoolSize() int {
	if c.poolSizeFn == nil {
		return 0
	}
	return c.poolSizeFn()
}

// Roster returns the pool membership as last disseminated (sentinel first).
func (c *MemberContext) Roster() []MemberInfo {
	if c.rosterFn == nil {
		return nil
	}
	return c.rosterFn()
}

// Addr is this member's skeleton address: its MemberInfo.Addr in the
// roster and its identity as a peer-message destination.
func (c *MemberContext) Addr() string { return c.addr }

// SendPeer delivers an application message to the pool member whose
// skeleton listens on to (used by protocols among members, e.g. Paxos
// rounds). Delivery is best effort: a message the receiver cannot queue is
// dropped. A send to self is delivered locally and hands over payload
// as-is.
func (c *MemberContext) SendPeer(to, topic string, payload []byte) error {
	if c.peerSendFn == nil {
		return errors.New("core: peer messaging unavailable")
	}
	return c.peerSendFn(to, topic, payload)
}

// SetPeerHandler installs the callback receiving peer messages sent by
// other members with SendPeer. The callback runs on the member's message
// loop and must not block.
func (c *MemberContext) SetPeerHandler(fn func(from, topic string, payload []byte)) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	c.peerHandler = fn
}

func (c *MemberContext) deliverPeer(from, topic string, payload []byte) {
	c.peerMu.Lock()
	h := c.peerHandler
	c.peerMu.Unlock()
	if h != nil {
		h(from, topic, payload)
	}
}
