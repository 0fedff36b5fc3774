// Package group implements the group-communication substrate the paper
// borrows from JGroups (§4.3): membership views, best-effort broadcast
// within a view, point-to-point messages and heartbeat failure detection.
//
// The ElasticRMI sentinel uses it to periodically broadcast the state of the
// elastic object pool (member identities, pending-invocation counts) to all
// skeletons, and to learn about skeleton failures so re-election and
// rebalancing can run.
package group

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// ErrClosed is returned for operations on a closed member.
var ErrClosed = errors.New("group: member closed")

// serviceName is the transport service for group traffic.
const serviceName = "group"

// Message is a payload delivered to a member.
type Message struct {
	From    string
	Topic   string
	Payload []byte
	ViewID  uint64
}

//go:generate go run elasticrmi/cmd/ermi-gen -in group.go -out group_ermi.go

// View is an installed membership view.
//
//ermi:codec
type View struct {
	ID      uint64
	Members []string // transport addresses, coordinator first
}

// Contains reports whether addr is in the view.
func (v View) Contains(addr string) bool {
	for _, m := range v.Members {
		if m == addr {
			return true
		}
	}
	return false
}

// Config configures a member.
type Config struct {
	// Addr is the listen address (":0" for any port).
	Addr string
	// HeartbeatInterval is how often view members are pinged. Zero disables
	// failure detection.
	HeartbeatInterval time.Duration
	// FailureTimeout is how long a peer may be silent before being
	// suspected. Defaults to 3x the heartbeat interval.
	FailureTimeout time.Duration
	// Clock is the time source; nil means wall clock.
	Clock simclock.Clock
}

// Wire messages of the group service. A decoded wireMsg's Payload is a
// zero-copy view into the request frame.
//
//ermi:codec
type (
	wireMsg struct {
		From    string
		Topic   string
		Payload []byte
		ViewID  uint64
	}
	wireView struct {
		View View
	}
)

// Member is one endpoint of the group.
type Member struct {
	clock   simclock.Clock
	srv     *transport.Server
	addr    string
	hbEvery time.Duration
	hbDead  time.Duration

	// epoch is the membership-epoch counter (see NextEpoch). It advances
	// past every view this member observes, so epochs allocated here are
	// always newer than any installed view.
	epoch atomic.Uint64

	// conns dials and caches one client per peer with a per-address
	// singleflight guard, outside the member lock.
	conns *transport.ConnCache

	mu       sync.Mutex
	view     View
	lastSeen map[string]time.Time
	closed   bool

	msgs  chan Message
	fails chan string
	stop  chan struct{}
	done  chan struct{}
}

// NewMember starts a member listening on cfg.Addr.
func NewMember(cfg Config) (*Member, error) {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.HeartbeatInterval > 0 && cfg.FailureTimeout == 0 {
		cfg.FailureTimeout = 3 * cfg.HeartbeatInterval
	}
	m := &Member{
		clock:    cfg.Clock,
		hbEvery:  cfg.HeartbeatInterval,
		hbDead:   cfg.FailureTimeout,
		conns:    transport.NewConnCache(transport.DialOptions{Timeout: 2 * time.Second}),
		lastSeen: make(map[string]time.Time),
		msgs:     make(chan Message, 128),
		fails:    make(chan string, 16),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv, err := transport.Serve(addr, m.handle)
	if err != nil {
		return nil, fmt.Errorf("group member: %w", err)
	}
	m.srv = srv
	m.addr = srv.Addr()
	if m.hbEvery > 0 {
		go m.heartbeatLoop()
	} else {
		close(m.done)
	}
	return m, nil
}

// Addr returns the member's transport address (its identity).
func (m *Member) Addr() string { return m.addr }

// NextEpoch allocates the next membership epoch: a monotonically
// increasing stamp for view changes. The view coordinator calls it once
// per change and installs the view with ID = epoch, so every roster and
// routing table derived from the view carries the same total order.
// Epochs start at 1; 0 is reserved for "no view yet" (bootstrap clients).
func (m *Member) NextEpoch() uint64 { return m.epoch.Add(1) }

// Epoch returns the newest membership epoch this member has allocated or
// observed through an installed view.
func (m *Member) Epoch() uint64 { return m.epoch.Load() }

// observeEpoch advances the counter past an externally stamped view.
func (m *Member) observeEpoch(id uint64) {
	for {
		cur := m.epoch.Load()
		if id <= cur || m.epoch.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Messages delivers broadcast and point-to-point messages.
func (m *Member) Messages() <-chan Message { return m.msgs }

// Failures delivers addresses of suspected-failed view members.
func (m *Member) Failures() <-chan string { return m.fails }

// View returns the currently installed view.
func (m *Member) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view
	v.Members = append([]string(nil), m.view.Members...)
	return v
}

// InstallView installs v locally. If this member is the view coordinator
// (first member), the view is also pushed to all other members.
func (m *Member) InstallView(v View) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.view = View{ID: v.ID, Members: append([]string(nil), v.Members...)}
	m.observeEpoch(v.ID)
	now := m.clock.Now()
	for _, peer := range v.Members {
		m.lastSeen[peer] = now
	}
	coordinator := len(v.Members) > 0 && v.Members[0] == m.addr
	peers := append([]string(nil), v.Members...)
	m.mu.Unlock()

	if !coordinator {
		return nil
	}
	payload := transport.Encode(&wireView{View: v})
	var firstErr error
	for _, peer := range peers {
		if peer == m.addr {
			continue
		}
		if err := m.send(peer, "View", payload); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("push view to %s: %w", peer, err)
		}
	}
	return firstErr
}

// Broadcast sends topic/payload to every member of the current view,
// including self (self-delivery is local). Delivery is best effort; the
// first error is returned but remaining members are still attempted.
func (m *Member) Broadcast(topic string, payload []byte) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	v := m.view
	peers := append([]string(nil), v.Members...)
	m.mu.Unlock()

	wire := transport.Encode(&wireMsg{From: m.addr, Topic: topic, Payload: payload, ViewID: v.ID})
	var firstErr error
	for _, peer := range peers {
		if peer == m.addr {
			m.deliver(Message{From: m.addr, Topic: topic, Payload: payload, ViewID: v.ID})
			continue
		}
		if err := m.send(peer, "Deliver", wire); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("broadcast to %s: %w", peer, err)
		}
	}
	return firstErr
}

// Send delivers topic/payload to one member.
func (m *Member) Send(to, topic string, payload []byte) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	viewID := m.view.ID
	m.mu.Unlock()
	if to == m.addr {
		m.deliver(Message{From: m.addr, Topic: topic, Payload: payload, ViewID: viewID})
		return nil
	}
	return m.send(to, "Deliver", transport.Encode(&wireMsg{From: m.addr, Topic: topic, Payload: payload, ViewID: viewID}))
}

func (m *Member) deliver(msg Message) {
	select {
	case m.msgs <- msg:
	default: // drop under backpressure rather than wedge the sender
	}
}

func (m *Member) client(addr string) (*transport.Client, error) {
	c, err := m.conns.Get(addr)
	if errors.Is(err, transport.ErrClosed) {
		return nil, ErrClosed
	}
	return c, err
}

func (m *Member) dropClient(addr string) {
	m.conns.Drop(addr)
}

func (m *Member) send(addr, method string, payload []byte) error {
	c, err := m.client(addr)
	if err != nil {
		return err
	}
	if _, err := c.Call(serviceName, method, payload, 5*time.Second); err != nil {
		m.dropClient(addr)
		return err
	}
	return nil
}

func (m *Member) handle(req *transport.Request) ([]byte, error) {
	if req.Service != serviceName {
		return nil, fmt.Errorf("unknown service %q", req.Service)
	}
	switch req.Method {
	case "Deliver":
		var w wireMsg
		if err := transport.Decode(req.Payload, &w); err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.lastSeen[w.From] = m.clock.Now()
		m.mu.Unlock()
		// w.Payload aliases the request frame, which is recycled when this
		// handler returns; the message is consumed later, so it gets a copy.
		payload := append([]byte(nil), w.Payload...)
		m.deliver(Message{From: w.From, Topic: w.Topic, Payload: payload, ViewID: w.ViewID})
		return nil, nil
	case "View":
		var w wireView
		if err := transport.Decode(req.Payload, &w); err != nil {
			return nil, err
		}
		m.mu.Lock()
		if w.View.ID >= m.view.ID {
			m.view = View{ID: w.View.ID, Members: append([]string(nil), w.View.Members...)}
			m.observeEpoch(w.View.ID)
			now := m.clock.Now()
			for _, peer := range w.View.Members {
				m.lastSeen[peer] = now
			}
		}
		m.mu.Unlock()
		return nil, nil
	case "Ping":
		var w wireMsg
		if err := transport.Decode(req.Payload, &w); err == nil {
			m.mu.Lock()
			m.lastSeen[w.From] = m.clock.Now()
			m.mu.Unlock()
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
}

func (m *Member) heartbeatLoop() {
	defer close(m.done)
	ping := transport.Encode(&wireMsg{From: m.addr})
	for {
		select {
		case <-m.stop:
			return
		case <-m.clock.After(m.hbEvery):
		}
		m.mu.Lock()
		peers := append([]string(nil), m.view.Members...)
		m.mu.Unlock()
		now := m.clock.Now()
		for _, peer := range peers {
			if peer == m.addr {
				continue
			}
			err := m.send(peer, "Ping", ping)
			m.mu.Lock()
			if err == nil {
				m.lastSeen[peer] = now
				m.mu.Unlock()
				continue
			}
			last, seen := m.lastSeen[peer]
			m.mu.Unlock()
			if !seen || now.Sub(last) >= m.hbDead {
				select {
				case m.fails <- peer:
				default:
				}
			}
		}
	}
}

// Close shuts the member down and waits for its background work to stop.
func (m *Member) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stop)
	m.conns.Close()
	err := m.srv.Close()
	<-m.done
	return err
}
