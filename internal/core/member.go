package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/metrics"
	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// Reserved skeleton methods. They share the pool's transport service with
// the application's remote methods but are handled by the skeleton itself.
const (
	// MethodDiscover asks a skeleton for the identities (address, UID) of
	// the members of its pool. Stubs no longer need it — the routing table
	// reaches them piggybacked on ordinary replies — but it remains the
	// admin/observability surface (ermi admin).
	MethodDiscover = "__discover"
	// MethodPing is a liveness probe.
	MethodPing = "__ping"
	// MethodStats asks a skeleton for its member's workload statistics
	// (admin/observability surface).
	MethodStats = "__stats"
	// MethodPeer carries an application message from another member
	// (MemberContext.SendPeer) as a peerMsg.
	MethodPeer = "__peer"
)

// expressMethod admits liveness pings and peer messages past a saturated
// gate: a busy member must neither be declared dead nor stall a handler of
// its own (a Paxos round, say) that waits on peer replies.
func expressMethod(_, method string) bool {
	return method == MethodPing || method == MethodPeer
}

// StatsReply answers MethodStats with the member's last completed burst
// interval.
//
//ermi:codec
type StatsReply struct {
	Pool     string
	UID      int64
	Pending  int
	Draining bool
	CPU      float64
	RAM      float64
	// Shed / Expired are the skeleton's cumulative admission-control
	// counters: invocations refused with an overload reply, and invocations
	// dropped because their deadline budget expired in queue.
	Shed    uint64
	Expired uint64
	Methods []metrics.MethodStat
}

// MemberInfo describes one pool member as seen in the roster and in
// discovery replies.
//
//ermi:codec
type MemberInfo struct {
	Addr     string // skeleton address: invocations and peer messages
	UID      int64
	Pending  int
	Draining bool
}

// DiscoverReply answers MethodDiscover.
//
//ermi:codec
type DiscoverReply struct {
	Pool    string
	Epoch   uint64
	Members []MemberInfo // sentinel first
}

// peerMsg is one application message between members (MethodPeer).
//
//ermi:codec
type peerMsg struct {
	From    string
	Topic   string
	Payload []byte
}

// member is one object of the elastic pool: the application Object plus its
// skeleton (transport server) and meter. It corresponds to one JVM on one
// Mesos slice in the paper.
type member struct {
	pool  *Pool
	uid   int64
	addr  string // skeleton address
	slice *cluster.Slice
	obj   Object
	ctx   *MemberContext
	meter *metrics.Meter
	srv   *transport.Server

	draining atomic.Bool

	// table is the newest routing table this member holds; the transport
	// server snapshots it per response to piggyback route updates to stale
	// clients.
	table atomic.Pointer[route.Table]

	mu        sync.Mutex
	roster    []MemberInfo // last known pool membership, sentinel first
	lastStats map[string]metrics.MethodStat
	lastUsage metrics.Usage
	// lastSrv is the skeleton's cumulative admission counters at the last
	// window roll; rollWindow feeds the delta into the meter so Shed/Expired
	// in Usage are per-window like everything else.
	lastSrv transport.ServerStats
	closed  bool

	// peers queues received messages for messageLoop. 128 holds a burst
	// from concurrent protocol rounds while the handler runs; a full queue
	// drops, so a slow handler loses messages instead of stalling senders.
	peers   chan peerMsg
	msgStop chan struct{}
	msgDone chan struct{}
}

// currentTable snapshots the member's routing table (transport.RouteSource).
func (m *member) currentTable() route.Table {
	if t := m.table.Load(); t != nil {
		return *t
	}
	return route.Table{}
}

// setTable installs t if it is newer than what the member holds.
func (m *member) setTable(t route.Table) {
	for {
		cur := m.table.Load()
		if cur != nil && t.Epoch <= cur.Epoch {
			return
		}
		fresh := t.Clone()
		if m.table.CompareAndSwap(cur, &fresh) {
			return
		}
	}
}

// skeleton request handling.
func (m *member) handle(req *transport.Request) ([]byte, error) {
	if req.Service != m.pool.cfg.Name {
		return nil, fmt.Errorf("unknown service %q", req.Service)
	}
	switch req.Method {
	case MethodDiscover:
		t := m.currentTable()
		req.ReleaseReply = true
		return transport.Encode(&DiscoverReply{Pool: m.pool.cfg.Name, Epoch: t.Epoch, Members: m.rosterCopy()}), nil
	case MethodPing:
		return nil, nil
	case MethodPeer:
		var msg peerMsg
		if err := transport.Decode(req.Payload, &msg); err != nil {
			return nil, err
		}
		// msg.Payload aliases the request frame, which is recycled when
		// this handler returns; the message loop consumes it later.
		msg.Payload = append([]byte(nil), msg.Payload...)
		m.queuePeer(msg)
		return nil, nil
	case MethodStats:
		usage := m.cachedUsage()
		stats := m.cachedStats()
		methods := make([]metrics.MethodStat, 0, len(stats))
		for _, st := range stats {
			methods = append(methods, st)
		}
		sort.Slice(methods, func(i, j int) bool { return methods[i].Method < methods[j].Method })
		srvStats := m.srv.Stats()
		req.ReleaseReply = true
		return transport.Encode(&StatsReply{
			Pool:     m.pool.cfg.Name,
			UID:      m.uid,
			Pending:  m.meter.InFlight(),
			Draining: m.draining.Load(),
			CPU:      usage.CPU,
			RAM:      usage.RAM,
			Shed:     srvStats.Shed,
			Expired:  srvStats.Expired,
			Methods:  methods,
		}), nil
	}
	// A draining member still serves every invocation that reaches it
	// (§2.5's pending work, plus arrivals from stale clients): the client
	// is steered away not by refusal but by the piggybacked routing table
	// on this very reply, which excludes the member. One-way invocations
	// get the same treatment minus the correction (they carry no reply).
	finish := m.meter.Begin(req.Method)
	defer finish()
	if rh, ok := m.obj.(RequestHandler); ok {
		return rh.HandleRequest(req)
	}
	return m.obj.HandleCall(req.Method, req.Payload)
}

func (m *member) rosterCopy() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]MemberInfo(nil), m.roster...)
}

// sendPeer delivers one application message to the member whose skeleton
// listens on to. A send to self is queued locally.
func (m *member) sendPeer(to, topic string, payload []byte) error {
	msg := peerMsg{From: m.addr, Topic: topic, Payload: payload}
	if to == m.addr {
		m.queuePeer(msg)
		return nil
	}
	return m.pool.callMember(to, MethodPeer, &msg, peerTimeout)
}

// queuePeer hands msg to the message loop, dropping it under backpressure
// rather than wedging the sender.
func (m *member) queuePeer(msg peerMsg) {
	select {
	case m.peers <- msg:
	default:
	}
}

// messageLoop delivers queued peer messages to the application's handler.
func (m *member) messageLoop() {
	defer close(m.msgDone)
	for {
		select {
		case <-m.msgStop:
			return
		case msg := <-m.peers:
			m.ctx.deliverPeer(msg.From, msg.Topic, msg.Payload)
		}
	}
}

// rollWindow finishes the member's current metrics window, caching the
// snapshot that MemberContext exposes to the application during the next
// burst interval. The skeleton's admission counters (shed / expired work)
// are folded into the window first, so policies see overload and
// utilization in one observation.
func (m *member) rollWindow() ([]metrics.MethodStat, metrics.Usage) {
	srv := m.srv.Stats()
	m.mu.Lock()
	last := m.lastSrv
	m.lastSrv = srv
	m.mu.Unlock()
	m.meter.AddShed(int64(srv.Shed - last.Shed))
	m.meter.AddExpired(int64(srv.Expired - last.Expired))
	stats, usage := m.meter.Window()
	m.mu.Lock()
	m.lastStats = metrics.StatsMap(stats)
	m.lastUsage = usage
	m.mu.Unlock()
	return stats, usage
}

func (m *member) cachedStats() map[string]metrics.MethodStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]metrics.MethodStat, len(m.lastStats))
	for k, v := range m.lastStats {
		out[k] = v
	}
	return out
}

func (m *member) cachedUsage() metrics.Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastUsage
}

// drain implements the §2.5 removal protocol under epoch routing: the
// member keeps serving while every reply steers its callers to the new
// table (which excludes it); once the in-flight count reaches zero (or the
// timeout expires) the skeleton quiesces — late arrivals are dropped
// unexecuted and every acknowledged response is flushed to the wire — so
// the close that follows can never cut an ack and trick a retrying caller
// into a duplicate execution.
// It reports whether the member went down clean; false means the timeout
// forced the shutdown with work still in flight, so at-most-once may have
// been forfeited for the calls that were cut.
func (m *member) drain(timeout time.Duration) bool {
	m.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for m.meter.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(500 * time.Microsecond)
	}
	quiesce := time.Until(deadline)
	if quiesce < 100*time.Millisecond {
		quiesce = 100 * time.Millisecond
	}
	return m.srv.Quiesce(quiesce)
}

// close releases the member's skeleton and application object. Safe to
// call twice.
func (m *member) close() { m.shutdown(true) }

// kill abruptly terminates the member without draining or closing its
// application object (failure injection).
func (m *member) kill() { m.shutdown(false) }

func (m *member) shutdown(closeObj bool) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.msgStop)
	if c, ok := m.obj.(Closer); ok && closeObj {
		_ = c.Close()
	}
	_ = m.srv.Close()
	m.pool.conns.Drop(m.addr)
	<-m.msgDone
}
