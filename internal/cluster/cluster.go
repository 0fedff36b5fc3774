// Package cluster implements the resource-sharing substrate that Apache
// Mesos provides in the paper: a set of physical/virtual nodes divided into
// "slices" (resource offers) with configurable CPU/memory reservations.
//
// The ElasticRMI runtime asks the Manager for slices when instantiating or
// growing an elastic object pool and relinquishes them on scale-down, exactly
// as §2.4/§2.5 of the paper describe. Provisioning latency — the time between
// requesting a slice and the slice being able to serve — is a configurable
// function, which lets the benchmark harness model both the Linux-container
// regime the paper measures for ElasticRMI (seconds) and the VM-provisioning
// regime of CloudWatch/AutoScaling (minutes).
//
// The Manager also emits administrator notifications when cluster
// utilization crosses configurable thresholds (§4.2).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elasticrmi/internal/simclock"
)

// Exported errors.
var (
	// ErrNoCapacity is returned by Acquire when no slice is free.
	ErrNoCapacity = errors.New("cluster: no free slices")
	// ErrClosed is returned after the manager is closed.
	ErrClosed = errors.New("cluster: manager closed")
)

// SliceSpec is the resource reservation of one slice.
type SliceSpec struct {
	CPUs  float64
	MemMB int
}

// Slice is a granted resource offer: a reservation on one node.
type Slice struct {
	ID   int
	Node string
	Spec SliceSpec
}

// NotificationKind classifies administrator notifications.
type NotificationKind int

// Notification kinds.
const (
	// UtilizationHigh fires when utilization rises above the high threshold.
	UtilizationHigh NotificationKind = iota + 1
	// UtilizationLow fires when utilization drops below the low threshold.
	UtilizationLow
)

// Notification is an administrator alert about cluster utilization (§4.2:
// "ElasticRMI also enables administrators to be notified if the utilization
// of the Mesos cluster exceeds or falls below thresholds").
type Notification struct {
	Kind        NotificationKind
	Utilization float64 // fraction of slices in use, [0,1]
	At          time.Time
}

// Config configures a Manager.
type Config struct {
	// Nodes is the number of nodes in the cluster.
	Nodes int
	// SlicesPerNode is how many slices each node is divided into.
	SlicesPerNode int
	// Spec is the per-slice reservation. Zero value defaults to 2 CPUs/2GB,
	// the example reservation in the paper.
	Spec SliceSpec
	// ProvisionLatency returns how long bringing up a slice takes, given the
	// current utilization fraction. Nil means instantaneous.
	ProvisionLatency func(utilization float64) time.Duration
	// Clock is the time source; nil means wall clock.
	Clock simclock.Clock
	// UtilHigh and UtilLow are admin-notification thresholds in [0,1].
	// Both zero disables notifications.
	UtilHigh, UtilLow float64
}

// Manager owns the cluster's slices.
type Manager struct {
	clock   simclock.Clock
	latency func(float64) time.Duration
	high    float64
	low     float64

	mu       sync.Mutex
	free     []*Slice
	inUse    map[int]*Slice
	nodeUsed map[string]int
	total    int
	closed   bool
	failed   map[string]bool
	notifyCh chan Notification
	revSubs  []chan *Slice
	wasHigh  bool
	wasLow   bool
}

// New creates a Manager per cfg.
func New(cfg Config) (*Manager, error) {
	if cfg.Nodes <= 0 || cfg.SlicesPerNode <= 0 {
		return nil, fmt.Errorf("cluster: need positive nodes (%d) and slices per node (%d)", cfg.Nodes, cfg.SlicesPerNode)
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	spec := cfg.Spec
	if spec.CPUs == 0 {
		spec.CPUs = 2
	}
	if spec.MemMB == 0 {
		spec.MemMB = 2048
	}
	m := &Manager{
		clock:    cfg.Clock,
		latency:  cfg.ProvisionLatency,
		high:     cfg.UtilHigh,
		low:      cfg.UtilLow,
		inUse:    make(map[int]*Slice),
		nodeUsed: make(map[string]int),
		failed:   make(map[string]bool),
		notifyCh: make(chan Notification, 16),
	}
	id := 0
	for n := 0; n < cfg.Nodes; n++ {
		node := fmt.Sprintf("node-%03d", n)
		for s := 0; s < cfg.SlicesPerNode; s++ {
			m.free = append(m.free, &Slice{ID: id, Node: node, Spec: spec})
			id++
		}
	}
	m.total = id
	return m, nil
}

// Total returns the number of slices in the cluster.
func (m *Manager) Total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// InUse returns the number of granted slices.
func (m *Manager) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inUse)
}

func (m *Manager) utilizationLocked() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(len(m.inUse)) / float64(m.total)
}

// Notifications delivers administrator utilization alerts. The channel is
// buffered; alerts are dropped if nobody drains it.
func (m *Manager) Notifications() <-chan Notification { return m.notifyCh }

// SubscribeRevoked returns a stream of the slices revoked by node failure
// (failure injection). Every subscriber (e.g. each elastic pool holding
// slices) receives every revoked slice; buffered, dropped if not drained.
func (m *Manager) SubscribeRevoked() <-chan *Slice {
	ch := make(chan *Slice, 16)
	m.mu.Lock()
	m.revSubs = append(m.revSubs, ch)
	m.mu.Unlock()
	return ch
}

// Acquire grants up to n slices, spreading them over distinct nodes where
// possible (the runtime never co-locates two pool members on one slice, and
// prefers distinct machines — §2.4). It blocks for the provisioning latency
// of the granted slices. If fewer than n are free it grants what is
// available (paper §4.2: "If only l < k are available, then only l objects
// are created"); if none are free it returns ErrNoCapacity.
func (m *Manager) Acquire(n int) ([]*Slice, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: acquire %d slices", n)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.free) == 0 {
		m.mu.Unlock()
		return nil, ErrNoCapacity
	}
	// Prefer slices on the least-loaded nodes to spread members; re-evaluate
	// after every grant so one request also spreads.
	granted := make([]*Slice, 0, n)
	for len(granted) < n && len(m.free) > 0 {
		best := 0
		for i, s := range m.free {
			if m.nodeUsed[s.Node] < m.nodeUsed[m.free[best].Node] {
				best = i
			}
		}
		s := m.free[best]
		m.free = append(m.free[:best], m.free[best+1:]...)
		m.inUse[s.ID] = s
		m.nodeUsed[s.Node]++
		granted = append(granted, s)
	}
	util := m.utilizationLocked()
	m.checkThresholdsLocked(util)
	var wait time.Duration
	if m.latency != nil {
		wait = m.latency(util)
	}
	m.mu.Unlock()

	if wait > 0 {
		m.clock.Sleep(wait)
	}
	return granted, nil
}

// Release returns a slice to the pool, making it available to other elastic
// objects in the cluster (§2.5).
func (m *Manager) Release(s *Slice) error {
	if s == nil {
		return errors.New("cluster: release nil slice")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.inUse[s.ID]; !ok {
		return fmt.Errorf("cluster: slice %d not in use", s.ID)
	}
	delete(m.inUse, s.ID)
	m.nodeUsed[s.Node]--
	// A slice in use is never on a failed node: FailNode revokes every
	// in-use slice of the node it fails, and nothing grants one there
	// again, so the slice always goes back to the free list.
	m.free = append(m.free, s)
	m.checkThresholdsLocked(m.utilizationLocked())
	return nil
}

// FailNode simulates the failure of a node: its free slices disappear and
// its granted slices are revoked (delivered to every SubscribeRevoked
// stream).
func (m *Manager) FailNode(node string) {
	m.mu.Lock()
	if m.failed[node] {
		m.mu.Unlock()
		return
	}
	m.failed[node] = true
	keep := m.free[:0]
	removed := 0
	for _, s := range m.free {
		if s.Node == node {
			removed++
			continue
		}
		keep = append(keep, s)
	}
	m.free = keep
	m.total -= removed
	var revoked []*Slice
	for id, s := range m.inUse {
		if s.Node == node {
			revoked = append(revoked, s)
			delete(m.inUse, id)
			m.total--
		}
	}
	m.nodeUsed[node] = 0
	subs := append([]chan *Slice(nil), m.revSubs...)
	m.mu.Unlock()
	for _, s := range revoked {
		for _, sub := range subs {
			select {
			case sub <- s:
			default:
			}
		}
	}
}

func (m *Manager) checkThresholdsLocked(util float64) {
	if m.high == 0 && m.low == 0 {
		return
	}
	if m.high > 0 && util >= m.high {
		if !m.wasHigh {
			m.wasHigh = true
			m.pushNotification(Notification{Kind: UtilizationHigh, Utilization: util, At: m.clock.Now()})
		}
	} else {
		m.wasHigh = false
	}
	if m.low > 0 && util <= m.low {
		if !m.wasLow {
			m.wasLow = true
			m.pushNotification(Notification{Kind: UtilizationLow, Utilization: util, At: m.clock.Now()})
		}
	} else {
		m.wasLow = false
	}
}

func (m *Manager) pushNotification(n Notification) {
	select {
	case m.notifyCh <- n:
	default: // drop if nobody is listening
	}
}

// Close shuts the manager down. Outstanding slices become invalid.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}
