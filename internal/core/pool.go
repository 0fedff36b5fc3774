package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/group"
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

	gm *group.Member // the runtime's group endpoint (view coordinator, epoch source)

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

	gm, err := group.NewMember(group.Config{
		HeartbeatInterval: 250 * time.Millisecond,
		Clock:             cfg.Clock,
	})
	if err != nil {
		return nil, fmt.Errorf("core: pool group endpoint: %w", err)
	}
	p := &Pool{
		cfg:     cfg,
		deps:    deps,
		factory: factory,
		gm:      gm,
		events:  make(chan ScaleEvent, 64),
		stop:    make(chan struct{}),
	}

	slices, err := deps.Cluster.Acquire(cfg.MinPoolSize)
	if err != nil {
		gm.Close()
		return nil, fmt.Errorf("core: instantiate pool %s: %w", cfg.Name, err)
	}
	for _, s := range slices {
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
	gm, err := group.NewMember(group.Config{Clock: p.cfg.Clock})
	if err != nil {
		return nil, err
	}
	m := &member{
		pool:    p,
		uid:     uid,
		slice:   s,
		gm:      gm,
		meter:   metrics.NewMeter(p.cfg.SliceCPUs, p.cfg.Clock),
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
		rosterFn:  m.rosterCopy,
		groupAddr: gm.Addr(),
		peerSendFn: func(to, topic string, payload []byte) error {
			return gm.Send(to, appTopicPrefix+topic, payload)
		},
	}
	m.ctx = ctx
	obj, err := p.factory(ctx)
	if err != nil {
		gm.Close()
		return nil, fmt.Errorf("factory: %w", err)
	}
	m.obj = obj
	if g, ok := obj.(RAMGauge); ok {
		m.meter.SetRAMGauge(g.RAMUsage)
	}
	srv, err := transport.ServeOpts("127.0.0.1:0", m.handle, transport.ServerOptions{
		MaxConcurrent: p.cfg.MaxConcurrentInvocations,
		MaxQueue:      p.cfg.MaxQueuedInvocations,
	})
	if err != nil {
		if c, ok := obj.(Closer); ok {
			_ = c.Close()
		}
		gm.Close()
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
			Addr:     m.srv.Addr(),
			Group:    m.gm.Addr(),
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

// publish pushes roster and table to the given members directly (the
// runtime holds in-process references; group dissemination additionally
// covers observers and is driven by the broadcast loop).
func publish(members []*member, roster []MemberInfo, table route.Table) {
	for _, m := range members {
		m.mu.Lock()
		m.roster = append([]MemberInfo(nil), roster...)
		m.mu.Unlock()
		m.setTable(table)
	}
}

// refreshView stamps a new membership epoch, installs the matching group
// view (runtime endpoint first, so the runtime coordinates view
// dissemination) and pushes the fresh roster plus epoch-stamped routing
// table to all members, so every skeleton immediately corrects stale
// clients on its next reply. The published roster and table are returned
// so callers that must hand the SAME view to additional parties (shrink's
// victims) never mint a second, different table under the same epoch.
func (p *Pool) refreshView() ([]MemberInfo, route.Table) {
	epoch := p.gm.NextEpoch()
	p.mu.Lock()
	addrs := make([]string, 0, len(p.members)+1)
	addrs = append(addrs, p.gm.Addr())
	for _, m := range p.members {
		addrs = append(addrs, m.gm.Addr())
	}
	roster, table := p.snapshotLocked(epoch, nil)
	members := append([]*member(nil), p.members...)
	p.mu.Unlock()

	_ = p.gm.InstallView(group.View{ID: epoch, Members: addrs})
	publish(members, roster, table)
	return roster, table
}

// Epoch returns the pool's current membership epoch.
func (p *Pool) Epoch() uint64 { return p.gm.Epoch() }

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
		out = append(out, m.srv.Addr())
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
			Addr:     m.srv.Addr(),
			Group:    m.gm.Addr(),
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
	return p.members[0].srv.Addr()
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
		return p.grow(delta, size)
	}
	return p.shrink(-delta, size)
}

func (p *Pool) grow(n, from int) error {
	start := p.cfg.Clock.Now()
	slices, err := p.deps.Cluster.Acquire(n)
	if err != nil {
		return fmt.Errorf("grow pool %s: %w", p.cfg.Name, err)
	}
	added := 0
	for _, s := range slices {
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
		Policy:              p.policy.Name(),
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

// broadcastLoop periodically has the sentinel broadcast the pool state —
// number of objects, identities, pending invocations — to all skeletons, and
// issues rebalance plans for overloaded members (§4.3).
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

// broadcastState performs one pool-state broadcast: the sentinel stamps a
// fresh epoch over the current membership with up-to-date load reports and
// rebalance-derived weights, so power-of-two clients see recent pending
// counts and overloaded members shed new arrivals by weight instead of
// bouncing them through redirects. Exposed to tests via BroadcastNow.
func (p *Pool) broadcastState() {
	p.mu.Lock()
	if p.closed || len(p.members) == 0 {
		p.mu.Unlock()
		return
	}
	sentinel := p.members[0]
	loads := make([]MemberLoad, 0, len(p.members))
	for _, m := range p.members {
		if !m.draining.Load() {
			loads = append(loads, MemberLoad{Addr: m.srv.Addr(), Pending: m.meter.InFlight()})
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

	epoch := p.gm.NextEpoch()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	roster, table := p.snapshotLocked(epoch, weights)
	members := append([]*member(nil), p.members...)
	p.mu.Unlock()

	publish(members, roster, table)
	_ = sentinel.gm.Broadcast(topicPoolState, transport.Encode(&poolStateMsg{Table: table, Members: roster}))
}

// BroadcastNow triggers one immediate pool-state broadcast (testing hook).
func (p *Pool) BroadcastNow() { p.broadcastState() }

// failureLoop watches heartbeat failures from the runtime's group endpoint
// and recovers: failed members are removed, their slices released, the
// sentinel re-elected if needed (§4.4), and the pool regrown to the minimum.
func (p *Pool) failureLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case addr := <-p.gm.Failures():
			p.handleFailure(addr)
		}
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
			p.mu.Lock()
			var addr string
			for _, m := range p.members {
				if m.slice.ID == s.ID {
					addr = m.gm.Addr()
					break
				}
			}
			p.mu.Unlock()
			if addr != "" {
				p.handleFailure(addr)
			}
		}
	}
}

func (p *Pool) handleFailure(groupAddr string) {
	p.scaleMu.Lock()
	defer p.scaleMu.Unlock()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	idx := -1
	for i, m := range p.members {
		if m.gm.Addr() == groupAddr {
			idx = i
			break
		}
	}
	if idx < 0 {
		p.mu.Unlock()
		return
	}
	failed := p.members[idx]
	wasSentinel := idx == 0
	p.members = append(p.members[:idx], p.members[idx+1:]...)
	size := len(p.members)
	p.mu.Unlock()

	failed.kill()
	_ = p.deps.Cluster.Release(failed.slice)
	// Sentinel failure triggers the election: members are kept sorted by
	// UID, so the new sentinel is simply the lowest surviving UID.
	_ = wasSentinel
	p.refreshView()
	p.rebind()
	p.emit(ScaleEvent{At: p.cfg.Clock.Now(), From: size + 1, To: size, Policy: "failure"})

	if size < p.cfg.MinPoolSize {
		if slices, err := p.deps.Cluster.Acquire(p.cfg.MinPoolSize - size); err == nil {
			for _, s := range slices {
				if _, lerr := p.launchMember(s); lerr != nil {
					_ = p.deps.Cluster.Release(s)
				}
			}
			p.refreshView()
			p.rebind()
		}
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
	return p.gm.Close()
}
