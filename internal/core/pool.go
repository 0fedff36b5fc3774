package core

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/metrics"
	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// Deps are the substrates a pool runs on: the cluster manager granting
// slices (Mesos in the paper), the shared-state store (HyperDex) and an
// optional registry for naming.
type Deps struct {
	Cluster *cluster.Manager
	// Store is the shared-state surface pool members read and write. Pass
	// the *kvstore.Cluster itself for plain per-call access, or a
	// *kvstore.ClusterSession (Cluster.NewSession) to serve repeated reads
	// from a lease-backed client cache the store invalidates before it
	// acknowledges any conflicting write — same consistency, no round trip
	// on a hit.
	Store    kvstore.Shared
	Registry *RegistryClient
	// StoreCluster, when set (and typically the same object as Store),
	// lets the runtime grow the shared-state store alongside the pool —
	// the paper's "ElasticRMI may add additional nodes to HyperDex as
	// necessary" (§4.2). One store node is kept per StoreNodeRatio members.
	StoreCluster *kvstore.Cluster
	// StoreNodeRatio is the number of pool members per store node; default 8.
	StoreNodeRatio int
}

// ScaleEvent records one elastic scaling action, consumed by tests and the
// benchmark harness (provisioning-interval measurements of Fig. 8).
type ScaleEvent struct {
	At     time.Time
	From   int
	To     int
	Policy string
	// ProvisioningLatency is the time from initiating the resource request
	// to the new member(s) being able to serve; zero for removals.
	ProvisioningLatency time.Duration
	// ForcedDrains counts removed members whose drain timed out with work
	// still in flight: their shutdown may have cut acknowledged responses,
	// forfeiting at-most-once for the affected calls. Zero on clean
	// shrinks and on all grow events.
	ForcedDrains int
}

// Pool is an instantiated elastic class: the elastic object pool plus its
// runtime (sentinel election, monitoring, scaling, load balancing).
type Pool struct {
	cfg     Config
	deps    Deps
	factory Factory
	policy  Policy
	fine    bool

	// epoch stamps every roster and routing table the runtime publishes;
	// 0 is reserved for "no table yet" (bootstrap clients).
	epoch atomic.Uint64
	// conns carries the runtime's liveness pings and the members' peer
	// messages, one connection per skeleton.
	conns *transport.ConnCache

	mu      sync.Mutex
	members []*member // sorted by UID; members[0] is the sentinel
	closed  bool

	scaleMu sync.Mutex // serializes grow/shrink/failure handling

	events chan ScaleEvent
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewPool instantiates an elastic class: it requests MinPoolSize slices from
// the cluster, launches one member per granted slice (fewer if the cluster
// cannot grant the minimum, §4.2), elects the sentinel, binds the registry
// name and starts the monitoring/scaling loops.
func NewPool(cfg Config, factory Factory, deps Deps) (*Pool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, errors.New("core: nil factory")
	}
	if deps.Cluster == nil || deps.Store == nil {
		return nil, errors.New("core: Deps.Cluster and Deps.Store are required")
	}
	cfg = cfg.withDefaults()

	p := &Pool{
		cfg:     cfg,
		deps:    deps,
		factory: factory,
		events:  make(chan ScaleEvent, 64),
		stop:    make(chan struct{}),
	}
	// Stamping the pool's own epoch keeps the skeletons from piggybacking
	// routing tables on replies to the runtime's calls.
	p.conns = transport.NewConnCache(transport.DialOptions{Timeout: failureTimeout, Epoch: p.epoch.Load})

	granted, err := deps.Cluster.Acquire(cfg.MinPoolSize)
	if err != nil {
		return nil, fmt.Errorf("core: instantiate pool %s: %w", cfg.Name, err)
	}
	for _, s := range granted {
		if _, lerr := p.launchMember(s); lerr != nil {
			p.Close()
			return nil, fmt.Errorf("core: launch member: %w", lerr)
		}
	}
	// The fine-grained mechanism is selected by the application overriding
	// ChangePoolSize (implementing PoolSizer).
	p.mu.Lock()
	if len(p.members) > 0 {
		_, p.fine = p.members[0].obj.(PoolSizer)
	}
	p.mu.Unlock()
	p.policy = policyFor(cfg, p.fine)

	p.refreshView()
	p.rebind()

	p.wg.Add(3)
	go p.scalingLoop()
	go p.failureLoop()
	go p.revocationLoop(deps.Cluster.SubscribeRevoked())
	if !cfg.DisableBroadcast {
		p.wg.Add(1)
		go p.broadcastLoop()
	}
	return p, nil
}

// launchMember creates one member on the given slice. Caller must not hold
// p.mu.
func (p *Pool) launchMember(s *cluster.Slice) (*member, error) {
	uid, err := p.deps.Store.AddInt64("__ermi/"+p.cfg.Name+"/uid", 1)
	if err != nil {
		return nil, fmt.Errorf("allocate uid: %w", err)
	}
	// Listen before the factory runs so the member knows its own address;
	// serving starts only once the object exists.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &member{
		pool:    p,
		uid:     uid,
		addr:    lis.Addr().String(),
		slice:   s,
		meter:   metrics.NewMeter(p.cfg.SliceCPUs, p.cfg.Clock),
		peers:   make(chan peerMsg, 128),
		msgStop: make(chan struct{}),
		msgDone: make(chan struct{}),
	}
	owner := fmt.Sprintf("%s/%d", p.cfg.Name, uid)
	ctx := &MemberContext{
		UID:      uid,
		PoolName: p.cfg.Name,
		State:    NewState(p.cfg.Name, owner, p.deps.Store, p.cfg.Clock),
		Clock:    p.cfg.Clock,
		statsFn:  m.cachedStats,
		usageFn:  m.cachedUsage,
		poolSizeFn: func() int {
			return p.Size()
		},
		rosterFn:   m.rosterCopy,
		addr:       m.addr,
		peerSendFn: m.sendPeer,
	}
	m.ctx = ctx
	obj, err := p.factory(ctx)
	if err != nil {
		lis.Close()
		return nil, fmt.Errorf("factory: %w", err)
	}
	m.obj = obj
	if g, ok := obj.(RAMGauge); ok {
		m.meter.SetRAMGauge(g.RAMUsage)
	}
	srv, err := transport.ServeListener(lis, m.handle, transport.ServerOptions{
		MaxConcurrent: p.cfg.MaxConcurrentInvocations,
		MaxQueue:      p.cfg.MaxQueuedInvocations,
		Express:       expressMethod,
	})
	if err != nil {
		if c, ok := obj.(Closer); ok {
			_ = c.Close()
		}
		return nil, err
	}
	m.srv = srv
	// Every response this skeleton writes piggybacks the member's routing
	// table to requesters carrying an older epoch.
	srv.SetRouteSource(m.currentTable)
	go m.messageLoop()

	p.mu.Lock()
	p.members = append(p.members, m)
	sort.Slice(p.members, func(i, j int) bool { return p.members[i].uid < p.members[j].uid })
	p.mu.Unlock()
	return m, nil
}

// snapshotLocked builds the roster and the epoch-stamped routing table for
// the current membership. weights maps member address to routing weight
// (nil: every member gets route.DefaultWeight). Caller holds p.mu.
func (p *Pool) snapshotLocked(epoch uint64, weights map[string]int32) ([]MemberInfo, route.Table) {
	roster := make([]MemberInfo, 0, len(p.members))
	table := route.Table{Epoch: epoch, Members: make([]route.Member, 0, len(p.members))}
	for _, m := range p.members {
		info := MemberInfo{
			Addr:     m.addr,
			UID:      m.uid,
			Pending:  m.meter.InFlight(),
			Draining: m.draining.Load(),
		}
		roster = append(roster, info)
		w := int32(route.DefaultWeight)
		if weights != nil {
			if ww, ok := weights[info.Addr]; ok {
				w = ww
			}
		}
		table.Members = append(table.Members, route.Member{
			Addr:     info.Addr,
			UID:      info.UID,
			Weight:   w,
			Load:     int32(info.Pending),
			Draining: info.Draining,
		})
	}
	return roster, table
}

// publish pushes roster and table to the given members directly: the
// runtime holds in-process references to every skeleton.
func publish(members []*member, roster []MemberInfo, table route.Table) {
	for _, m := range members {
		m.mu.Lock()
		m.roster = append([]MemberInfo(nil), roster...)
		m.mu.Unlock()
		m.setTable(table)
	}
}

// refreshView stamps a new membership epoch and pushes the fresh roster
// plus epoch-stamped routing table to all members, so every skeleton
// immediately corrects stale clients on its next reply. The published
// roster and table are returned so callers that must hand the SAME view to
// additional parties (shrink's victims) never mint a second, different
// table under the same epoch.
func (p *Pool) refreshView() ([]MemberInfo, route.Table) {
	epoch := p.epoch.Add(1)
	p.mu.Lock()
	roster, table := p.snapshotLocked(epoch, nil)
	members := append([]*member(nil), p.members...)
	p.mu.Unlock()

	publish(members, roster, table)
	return roster, table
}

// Epoch returns the pool's current membership epoch.
func (p *Pool) Epoch() uint64 { return p.epoch.Load() }

// rebind refreshes the registry binding (sentinel first).
func (p *Pool) rebind() {
	if p.deps.Registry == nil {
		return
	}
	eps := p.Endpoints()
	if len(eps) == 0 {
		return
	}
	_ = p.deps.Registry.Bind(p.cfg.Name, eps)
}

// Size returns the current number of members.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// Endpoints returns the skeleton addresses, sentinel first.
func (p *Pool) Endpoints() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, m.addr)
	}
	return out
}

// Members returns the pool roster, sentinel first.
func (p *Pool) Members() []MemberInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberInfo, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, MemberInfo{
			Addr:     m.addr,
			UID:      m.uid,
			Pending:  m.meter.InFlight(),
			Draining: m.draining.Load(),
		})
	}
	return out
}

// SentinelAddr returns the sentinel's skeleton address ("" if empty).
func (p *Pool) SentinelAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.members) == 0 {
		return ""
	}
	return p.members[0].addr
}

// Events streams scaling actions. The channel is buffered; events are
// dropped when nobody drains it.
func (p *Pool) Events() <-chan ScaleEvent { return p.events }

// Policy returns the name of the active scaling policy.
func (p *Pool) Policy() string { return p.policy.Name() }

func (p *Pool) emit(ev ScaleEvent) {
	select {
	case p.events <- ev:
	default:
	}
}

// scalingLoop applies the scaling policy every burst interval (§2.5, §3).
func (p *Pool) scalingLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.cfg.Clock.After(p.cfg.BurstInterval):
		}
		p.runScalingStep()
	}
}

// runScalingStep gathers one burst interval's metrics, consults the policy
// and applies the decision. Exposed to tests via Step.
func (p *Pool) runScalingStep() {
	p.mu.Lock()
	members := append([]*member(nil), p.members...)
	size := len(p.members)
	p.mu.Unlock()
	if size == 0 {
		return
	}

	var sumCPU, sumRAM float64
	var sumShed, sumExpired, sumCalls int64
	var fineDeltas []int
	for _, m := range members {
		stats, usage := m.rollWindow()
		sumCPU += usage.CPU
		sumRAM += usage.RAM
		sumShed += usage.Shed
		sumExpired += usage.Expired
		for i := range stats {
			sumCalls += stats[i].Calls
		}
		if p.fine {
			if sizer, ok := m.obj.(PoolSizer); ok {
				fineDeltas = append(fineDeltas, sizer.ChangePoolSize())
			}
		}
	}
	pm := PoolMetrics{
		AvgCPU:      sumCPU / float64(len(members)),
		AvgRAM:      sumRAM / float64(len(members)),
		PoolSize:    size,
		MinPool:     p.cfg.MinPoolSize,
		MaxPool:     p.cfg.MaxPoolSize,
		FineDeltas:  fineDeltas,
		DesiredSize: -1,
		Shed:        sumShed,
		Expired:     sumExpired,
		Calls:       sumCalls,
	}
	if p.cfg.Decider != nil {
		pm.DesiredSize = p.cfg.Decider.DesiredPoolSize(p.cfg.Name, size)
	}
	delta := p.policy.Decide(pm)
	if delta == 0 {
		return
	}
	if err := p.Resize(delta); err != nil && !errors.Is(err, cluster.ErrNoCapacity) && !errors.Is(err, ErrPoolClosed) {
		// Mesos-related failures only affect addition/removal until the
		// cluster recovers (§4.4): log-free degrade, retry next interval.
		return
	}
}

// Step runs one scaling evaluation immediately (testing hook).
func (p *Pool) Step() { p.runScalingStep() }

// Resize grows (delta>0) or shrinks (delta<0) the pool by |delta| members,
// clamped to the configured bounds.
func (p *Pool) Resize(delta int) error {
	p.scaleMu.Lock()
	defer p.scaleMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	size := len(p.members)
	p.mu.Unlock()

	delta = clampDelta(delta, size, p.cfg.MinPoolSize, p.cfg.MaxPoolSize)
	if delta == 0 {
		return nil
	}
	if delta > 0 {
		return p.grow(delta, size, p.policy.Name())
	}
	return p.shrink(-delta, size)
}

// grow launches n members on freshly acquired slices and emits one scale
// event labelled with the policy (or "failure") that asked for them.
func (p *Pool) grow(n, from int, policy string) error {
	start := p.cfg.Clock.Now()
	granted, err := p.deps.Cluster.Acquire(n)
	if err != nil {
		return fmt.Errorf("grow pool %s: %w", p.cfg.Name, err)
	}
	added := 0
	for _, s := range granted {
		if _, lerr := p.launchMember(s); lerr != nil {
			_ = p.deps.Cluster.Release(s)
			continue
		}
		added++
	}
	if added == 0 {
		return fmt.Errorf("grow pool %s: no members launched", p.cfg.Name)
	}
	latency := p.cfg.Clock.Since(start)
	p.refreshView()
	p.rebind()
	p.scaleStore()
	p.emit(ScaleEvent{
		At:                  p.cfg.Clock.Now(),
		From:                from,
		To:                  from + added,
		Policy:              policy,
		ProvisioningLatency: latency,
	})
	return nil
}

// scaleStore grows the shared-state store alongside the pool (§4.2): the
// runtime keeps at least one store node per StoreNodeRatio members.
func (p *Pool) scaleStore() {
	if p.deps.StoreCluster == nil {
		return
	}
	ratio := p.deps.StoreNodeRatio
	if ratio <= 0 {
		ratio = 8
	}
	target := 1 + (p.Size()-1)/ratio
	for p.deps.StoreCluster.Nodes() < target {
		if err := p.deps.StoreCluster.AddNode(); err != nil {
			return // degrade: the current nodes keep serving
		}
	}
}

func (p *Pool) shrink(n, from int) error {
	// Remove the highest-UID members; the sentinel (lowest UID) is removed
	// last, never while other members exist.
	p.mu.Lock()
	if len(p.members) == 0 {
		p.mu.Unlock()
		return nil
	}
	if n > len(p.members)-1 {
		n = len(p.members) - 1
	}
	victims := append([]*member(nil), p.members[len(p.members)-n:]...)
	p.members = p.members[:len(p.members)-n]
	p.mu.Unlock()
	if len(victims) == 0 {
		return nil
	}

	// Stamp the shrunken view before draining, and hand the exact same
	// roster and table to the victims too: a stale client that still
	// reaches a draining member is served and corrected by the piggybacked
	// table on that very reply, which no longer lists the victim.
	roster, table := p.refreshView()
	p.rebind()
	for _, v := range victims {
		v.draining.Store(true)
	}
	publish(victims, roster, table)
	forced := 0
	for _, v := range victims {
		if !v.drain(p.cfg.DrainTimeout) {
			forced++
		}
		v.close()
		_ = p.deps.Cluster.Release(v.slice)
	}
	p.emit(ScaleEvent{
		At:           p.cfg.Clock.Now(),
		From:         from,
		To:           from - len(victims),
		Policy:       p.policy.Name(),
		ForcedDrains: forced,
	})
	return nil
}

// broadcastLoop periodically republishes the pool state — number of
// objects, identities, pending invocations — to all skeletons, and issues
// rebalance plans for overloaded members (§4.3).
func (p *Pool) broadcastLoop() {
	defer p.wg.Done()
	interval := p.cfg.BurstInterval / 2
	if interval > time.Second {
		interval = time.Second
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	for {
		select {
		case <-p.stop:
			return
		case <-p.cfg.Clock.After(interval):
		}
		p.broadcastState()
	}
}

// broadcastState performs one pool-state broadcast: it stamps a fresh
// epoch over the current membership with up-to-date load reports and the
// sentinel's rebalance-derived weights, and publishes it to every skeleton,
// so power-of-two clients see recent pending counts and overloaded members
// shed new arrivals by weight instead of bouncing them through redirects.
// Exposed to tests via BroadcastNow.
func (p *Pool) broadcastState() {
	p.mu.Lock()
	if p.closed || len(p.members) == 0 {
		p.mu.Unlock()
		return
	}
	loads := make([]MemberLoad, 0, len(p.members))
	for _, m := range p.members {
		if !m.draining.Load() {
			loads = append(loads, MemberLoad{Addr: m.addr, Pending: m.meter.InFlight()})
		}
	}
	p.mu.Unlock()

	// The sentinel's bin-packing plan (§4.3) becomes client-visible weight:
	// a member told to shed fraction f of its arrivals is weighted down to
	// (1-f) of the default share.
	var weights map[string]int32
	if plans := PlanRebalance(loads, 2.0); len(plans) > 0 {
		weights = make(map[string]int32, len(plans))
		for _, plan := range plans {
			w := int32((1 - plan.Fraction) * route.DefaultWeight)
			if w < 0 {
				w = 0
			}
			weights[plan.From] = w
		}
	}

	epoch := p.epoch.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	roster, table := p.snapshotLocked(epoch, weights)
	members := append([]*member(nil), p.members...)
	p.mu.Unlock()

	publish(members, roster, table)
}

// BroadcastNow triggers one immediate pool-state broadcast (testing hook).
func (p *Pool) BroadcastNow() { p.broadcastState() }

// Liveness: the runtime pings every member's skeleton each heartbeat and
// declares a member failed once no ping has succeeded for failureTimeout.
// A peer message is bounded separately and more loosely: it fails only its
// sender, never the receiver's membership.
const (
	heartbeatInterval = 250 * time.Millisecond
	failureTimeout    = 3 * heartbeatInterval
	peerTimeout       = 5 * time.Second
)

// callMember runs one runtime call (a ping or a peer message) against the
// skeleton at addr over the pool's shared connections; a failed connection
// is dropped so the next call redials.
func (p *Pool) callMember(addr, method string, arg transport.Marshaler, timeout time.Duration) error {
	c, err := p.conns.Get(addr)
	if err == nil {
		err = c.CallDecode(p.cfg.Name, method, arg, nil, timeout)
	}
	if err != nil {
		p.conns.Drop(addr)
	}
	return err
}

// failureLoop pings every member's skeleton each heartbeat and recovers
// from the silent ones: failed members are removed, their slices released,
// the sentinel re-elected if needed (§4.4), and the pool regrown to the
// minimum.
func (p *Pool) failureLoop() {
	defer p.wg.Done()
	lastSeen := make(map[*member]time.Time)
	for {
		select {
		case <-p.stop:
			return
		case <-p.cfg.Clock.After(heartbeatInterval):
		}
		p.mu.Lock()
		members := append([]*member(nil), p.members...)
		p.mu.Unlock()
		now := p.cfg.Clock.Now()
		seen := make(map[*member]time.Time, len(members))
		for _, m := range members {
			last, ok := lastSeen[m]
			if !ok || p.callMember(m.addr, MethodPing, nil, failureTimeout) == nil {
				last = now
			}
			if now.Sub(last) >= failureTimeout {
				p.handleFailure(m)
				continue
			}
			seen[m] = last
		}
		lastSeen = seen
	}
}

// revocationLoop reacts to cluster slice revocations (node failures in the
// resource manager): the member on a revoked slice is gone with its node.
func (p *Pool) revocationLoop(revoked <-chan *cluster.Slice) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case s := <-revoked:
			var failed *member
			p.mu.Lock()
			if i := slices.IndexFunc(p.members, func(m *member) bool { return m.slice.ID == s.ID }); i >= 0 {
				failed = p.members[i]
			}
			p.mu.Unlock()
			if failed != nil {
				p.handleFailure(failed)
			}
		}
	}
}

// handleFailure removes a failed member and regrows the pool to the
// minimum. The sentinel needs no separate election: members are kept
// sorted by UID, so the new sentinel is simply the lowest surviving UID.
func (p *Pool) handleFailure(failed *member) {
	p.scaleMu.Lock()
	defer p.scaleMu.Unlock()
	p.mu.Lock()
	i := slices.Index(p.members, failed)
	if p.closed || i < 0 {
		p.mu.Unlock()
		return
	}
	p.members = slices.Delete(p.members, i, i+1)
	size := len(p.members)
	p.mu.Unlock()

	failed.kill()
	_ = p.deps.Cluster.Release(failed.slice)
	p.refreshView()
	p.rebind()
	p.emit(ScaleEvent{At: p.cfg.Clock.Now(), From: size + 1, To: size, Policy: "failure"})
	if size < p.cfg.MinPoolSize {
		// Best effort: without capacity the pool serves below the minimum
		// until a later grow succeeds, as it does after NewPool.
		_ = p.grow(p.cfg.MinPoolSize-size, size, "failure")
	}
}

// KillMember abruptly terminates the member with the given UID (failure
// injection for tests). Returns false if no such member exists.
func (p *Pool) KillMember(uid int64) bool {
	p.mu.Lock()
	var target *member
	for _, m := range p.members {
		if m.uid == uid {
			target = m
			break
		}
	}
	p.mu.Unlock()
	if target == nil {
		return false
	}
	target.kill()
	return true
}

// Close drains and shuts down the pool, releasing all slices and unbinding
// the registry name.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	members := append([]*member(nil), p.members...)
	p.members = nil
	p.mu.Unlock()

	close(p.stop)
	p.wg.Wait()

	for _, m := range members {
		m.drain(time.Second)
		m.close()
		_ = p.deps.Cluster.Release(m.slice)
	}
	if p.deps.Registry != nil {
		_ = p.deps.Registry.Unbind(p.cfg.Name)
	}
	return p.conns.Close()
}
