package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// peerEnv is a pool whose members record the peer messages they receive
// and park "Park" invocations until release is closed.
type peerEnv struct {
	pool    *Pool
	parked  chan struct{}
	release chan struct{}

	mu    sync.Mutex
	ctxs  map[string]*MemberContext // by skeleton address
	inbox map[string]chan []byte    // received peer payloads, by receiver
}

func newPeerEnv(t *testing.T, cfg Config) *peerEnv {
	t.Helper()
	e := &peerEnv{
		parked:  make(chan struct{}, 8),
		release: make(chan struct{}),
		ctxs:    make(map[string]*MemberContext),
		inbox:   make(map[string]chan []byte),
	}
	cfg.BurstInterval, cfg.DisableBroadcast, cfg.DrainTimeout = time.Hour, true, time.Second
	pool, err := NewPool(cfg, e.factory, newTestEnv(t, 8).deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() {
		close(e.release)
		pool.Close()
	})
	e.pool = pool
	return e
}

func (e *peerEnv) factory(ctx *MemberContext) (Object, error) {
	inbox := make(chan []byte, 256) // holds every message a test sends
	e.mu.Lock()
	e.ctxs[ctx.Addr()] = ctx
	e.inbox[ctx.Addr()] = inbox
	e.mu.Unlock()
	ctx.SetPeerHandler(func(_, _ string, payload []byte) {
		select {
		case inbox <- payload:
		default:
		}
	})
	mux := NewMux()
	Handle(mux, "Park", func(Empty) (Empty, error) {
		e.parked <- struct{}{}
		<-e.release
		return Empty{}, nil
	})
	return mux, nil
}

func (e *peerEnv) ctx(addr string) *MemberContext {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctxs[addr]
}

func (e *peerEnv) received(addr string) <-chan []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inbox[addr]
}

// TestFailureRegrowEmitsScaleEvent: a detected failure shrinks the pool and
// the regrow to the minimum goes through grow, so the event trail ends at
// the size the pool is back at.
func TestFailureRegrowEmitsScaleEvent(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "regrow", MinPoolSize: 3, MaxPoolSize: 6,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	if !pool.KillMember(pool.Members()[1].UID) {
		t.Fatal("KillMember failed")
	}
	for i, want := range []ScaleEvent{{From: 3, To: 2}, {From: 2, To: 3}} {
		select {
		case ev := <-pool.Events():
			if ev.Policy != "failure" || ev.From != want.From || ev.To != want.To {
				t.Fatalf("event %d = %+v, want failure %d->%d", i, ev, want.From, want.To)
			}
			if i == 1 && ev.ProvisioningLatency <= 0 {
				t.Fatalf("regrow provisioning latency = %v, want > 0", ev.ProvisioningLatency)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no event %d (want %d->%d)", i, want.From, want.To)
		}
	}
}

// TestSaturatedMemberStaysLiveAndReachable: pings and peer messages ride
// the express lane, so a member whose gate and queue are full of parked
// work is neither declared dead nor cut off from its peers.
func TestSaturatedMemberStaysLiveAndReachable(t *testing.T) {
	e := newPeerEnv(t, Config{
		Name: "busy", MinPoolSize: 2, MaxPoolSize: 2,
		MaxConcurrentInvocations: 1, MaxQueuedInvocations: 1,
	})
	members := e.pool.Members()
	sender, busy := members[0].Addr, members[1].Addr
	c, err := transport.Dial(busy)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The running Park ends when Close fails it or the cleanup releases it.
	go c.Call("busy", "Park", nil, 0)
	<-e.parked
	// A one-way Park takes the queue slot: it is on the wire, and so ahead
	// of the next request, by the time OneWay returns.
	if err := c.OneWay("busy", "Park", nil); err != nil {
		t.Fatalf("queued Park: %v", err)
	}
	if _, err := c.Call("busy", "Park", nil, 2*time.Second); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("third Park = %v, want ErrOverloaded (gate and queue full)", err)
	}

	time.Sleep(5 * heartbeatInterval)
	select {
	case ev := <-e.pool.Events():
		t.Fatalf("saturated member produced scale event %+v", ev)
	default:
	}
	if got := e.pool.Size(); got != 2 {
		t.Fatalf("pool size = %d, want 2", got)
	}
	if err := e.ctx(sender).SendPeer(busy, "t", []byte("hi")); err != nil {
		t.Fatalf("SendPeer to saturated member: %v", err)
	}
	select {
	case got := <-e.received(busy):
		if string(got) != "hi" {
			t.Fatalf("delivered %q, want hi", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer message to saturated member not delivered")
	}
}

// TestPeerPayloadsSurviveFrameReuse is the regression test for the
// zero-copy aliasing hazard: a decoded peer message's payload is a view
// into the request frame, which the transport recycles once the handler
// returns, while the application consumes the message later. Many distinct
// messages, plus same-sized noise calls into the receiver, reuse the
// recycled slabs; every message collected before any is checked must still
// carry its own bytes.
func TestPeerPayloadsSurviveFrameReuse(t *testing.T) {
	e := newPeerEnv(t, Config{Name: "alias", MinPoolSize: 2, MaxPoolSize: 2})
	members := e.pool.Members()
	sender, receiver := e.ctx(members[0].Addr), members[1].Addr
	const n, size = 100, 200 // n stays under the receive queue: nothing is dropped
	payload := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, size)
		binary.BigEndian.PutUint32(b, uint32(i))
		return b
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := transport.Dial(receiver)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		noise := bytes.Repeat([]byte{0xEE}, size+32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c.Call("alias", MethodPing, noise, time.Second)
		}
	}()
	for i := 0; i < n; i++ {
		if err := sender.SendPeer(receiver, "t", payload(i)); err != nil {
			t.Fatalf("SendPeer %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Each payload must arrive intact and exactly once: a recycled slab
	// shows up as corrupt bytes or as a copy of a later message.
	seen := make([]bool, n)
	inbox := e.received(receiver)
	for k := 0; k < n; k++ {
		var got []byte
		select {
		case got = <-inbox:
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d/%d peer messages", k, n)
		}
		i := int(binary.BigEndian.Uint32(got))
		if i >= n || seen[i] || !bytes.Equal(got, payload(i)) {
			t.Fatalf("delivered payload was overwritten after its frame was recycled: %x", got[:8])
		}
		seen[i] = true
	}
	select {
	case got := <-inbox:
		t.Fatalf("extra peer message delivered: %x", got[:8])
	case <-time.After(50 * time.Millisecond):
	}
}
