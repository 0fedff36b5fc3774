// Package metrics implements the workload-monitoring substrate of
// ElasticRMI: per-method invocation statistics (the paper's
// getMethodCallStats) and resource-utilization estimates (getAvgCPUUsage /
// getAvgRAMUsage) derived from measured busy time, averaged over the burst
// interval.
//
// In the paper these numbers come from the JVM and the operating system of
// each Mesos slice. Here each pool member owns a Meter; the skeleton feeds
// it the service time of every remote method execution, and CPU utilization
// over a window is busy-time / (window x capacity). RAM utilization is an
// application-supplied gauge (e.g. fraction of a cache's capacity in use),
// mirroring how a real deployment reads RSS against the slice reservation.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/simclock"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in metrics.go -out metrics_ermi.go

// MethodStat aggregates invocations of one remote method over a window. It
// travels in the skeleton's stats reply.
//
//ermi:codec
type MethodStat struct {
	Method string
	// Calls is the number of invocations observed in the window.
	Calls int64
	// RatePerSec is Calls divided by the window length.
	RatePerSec float64
	// AvgLatency is the mean service time of the invocations.
	AvgLatency time.Duration
}

// Usage is a point-in-time resource utilization estimate in percent [0,100],
// plus the window's overload counters: invocations the member's admission
// controller refused. Utilization says how busy the member is; Shed and
// Expired say work was turned away — the earlier, sharper scale-out signal
// (a member can shed at 91% CPU and at 100% alike, but only shedding proves
// demand exceeded capacity).
type Usage struct {
	CPU float64
	RAM float64
	// Shed counts invocations refused with an overload reply (admission gate
	// and queue both full) during the window.
	Shed int64
	// Expired counts invocations dropped because their deadline budget ran
	// out waiting in the admission queue during the window.
	Expired int64
}

// Meter collects per-method statistics and busy time. The zero value is not
// usable; construct with NewMeter.
type Meter struct {
	clock simclock.Clock
	// capacity is the node's notional service capacity: the number of
	// invocations the member can execute concurrently at 100% CPU (the CPU
	// reservation of the Mesos slice, in "cores").
	capacity float64
	// inFlight counts invocations between Begin and End, outside mu so
	// Begin takes no lock.
	inFlight atomic.Int64

	mu          sync.Mutex
	windowStart time.Time
	busy        time.Duration
	shed        int64
	expired     int64
	perMethod   map[string]*methodAgg
	ramGauge    func() float64
}

type methodAgg struct {
	calls     int64
	totalBusy time.Duration
}

// NewMeter creates a Meter. capacityCores is the slice's CPU reservation in
// cores (>= 1); clock may be nil for the wall clock.
func NewMeter(capacityCores float64, clock simclock.Clock) *Meter {
	if clock == nil {
		clock = simclock.Real{}
	}
	if capacityCores <= 0 {
		capacityCores = 1
	}
	return &Meter{
		clock:       clock,
		capacity:    capacityCores,
		windowStart: clock.Now(),
		perMethod:   make(map[string]*methodAgg),
	}
}

// SetRAMGauge installs a function returning current memory utilization in
// percent. If unset, RAM reads as 0.
func (m *Meter) SetRAMGauge(g func() float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ramGauge = g
}

// Begin marks the start of one invocation and returns its start time,
// which the matching End takes back.
func (m *Meter) Begin() time.Time {
	m.inFlight.Add(1)
	return m.clock.Now()
}

// End records the service time of one invocation of method that Begin
// started at start.
func (m *Meter) End(method string, start time.Time) {
	elapsed := m.clock.Since(start)
	m.inFlight.Add(-1)
	m.mu.Lock()
	m.busy += elapsed
	agg, ok := m.perMethod[method]
	if !ok {
		agg = &methodAgg{}
		m.perMethod[method] = agg
	}
	agg.calls++
	agg.totalBusy += elapsed
	m.mu.Unlock()
}

// Observe records a completed invocation with a known service time. It is
// the Begin/End pair in one call, used by simulated members.
func (m *Meter) Observe(method string, serviceTime time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.busy += serviceTime
	agg, ok := m.perMethod[method]
	if !ok {
		agg = &methodAgg{}
		m.perMethod[method] = agg
	}
	agg.calls++
	agg.totalBusy += serviceTime
}

// AddShed records n invocations the member's admission controller refused
// with an overload reply during the current window.
func (m *Meter) AddShed(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.shed += n
	m.mu.Unlock()
}

// AddExpired records n invocations whose deadline budget expired in the
// admission queue during the current window (handlers never ran).
func (m *Meter) AddExpired(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.expired += n
	m.mu.Unlock()
}

// InFlight returns the number of invocations currently executing.
func (m *Meter) InFlight() int {
	return int(m.inFlight.Load())
}

// Window reports statistics accumulated since the last call to Window (or
// since construction) and starts a new window. It returns the per-method
// stats sorted by method name and the resource usage over the window.
//
// The RAM gauge runs OUTSIDE the meter's lock: gauges may consult the pool
// or the shared store (the cache occupancy gauge does both), and holding
// the meter lock across such calls inverts lock order against code that
// samples the meter while holding pool state.
func (m *Meter) Window() ([]MethodStat, Usage) {
	m.mu.Lock()
	now := m.clock.Now()
	elapsed := now.Sub(m.windowStart)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	stats := make([]MethodStat, 0, len(m.perMethod))
	for name, agg := range m.perMethod {
		st := MethodStat{Method: name, Calls: agg.calls}
		st.RatePerSec = float64(agg.calls) / elapsed.Seconds()
		if agg.calls > 0 {
			st.AvgLatency = agg.totalBusy / time.Duration(agg.calls)
		}
		stats = append(stats, st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Method < stats[j].Method })

	cpu := 100 * m.busy.Seconds() / (elapsed.Seconds() * m.capacity)
	if cpu > 100 {
		cpu = 100
	}
	if cpu < 0 {
		cpu = 0
	}
	gauge := m.ramGauge
	shed, expired := m.shed, m.expired
	m.busy = 0
	m.shed, m.expired = 0, 0
	m.perMethod = make(map[string]*methodAgg)
	m.windowStart = now
	m.mu.Unlock()

	var ram float64
	if gauge != nil {
		ram = gauge()
		if ram < 0 {
			ram = 0
		}
		if ram > 100 {
			ram = 100
		}
	}
	return stats, Usage{CPU: cpu, RAM: ram, Shed: shed, Expired: expired}
}

// Peek returns the usage of the current, unfinished window without resetting
// it. Useful for load-balancing decisions between burst intervals. Like
// Window, the RAM gauge runs outside the meter's lock.
func (m *Meter) Peek() Usage {
	m.mu.Lock()
	elapsed := m.clock.Now().Sub(m.windowStart)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	cpu := 100 * m.busy.Seconds() / (elapsed.Seconds() * m.capacity)
	if cpu > 100 {
		cpu = 100
	}
	gauge := m.ramGauge
	shed, expired := m.shed, m.expired
	m.mu.Unlock()
	var ram float64
	if gauge != nil {
		ram = gauge()
	}
	return Usage{CPU: cpu, RAM: ram, Shed: shed, Expired: expired}
}

// StatsMap converts a slice of MethodStat into the map keyed by method name
// that the paper's getMethodCallStats returns.
func StatsMap(stats []MethodStat) map[string]MethodStat {
	out := make(map[string]MethodStat, len(stats))
	for _, s := range stats {
		out[s.Method] = s
	}
	return out
}
