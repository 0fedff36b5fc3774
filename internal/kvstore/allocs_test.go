package kvstore

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"

	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// nopPusher is a session connection that swallows every event.
type nopPusher struct{}

func (nopPusher) Send(kind, seq uint64, topic string, payload []byte) error { return nil }
func (nopPusher) Closed() bool                                              { return false }

// newViewServer boots a store node under a two-member, unreplicated view
// (itself plus an address nothing listens on), so isPrimary consults the
// ring as it does in a cluster, and returns a key the node heads.
func newViewServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetView(route.Table{Epoch: 1, Members: []route.Member{
		{Addr: srv.Addr(), UID: 1, Weight: route.DefaultWeight},
		{Addr: "127.0.0.1:1", UID: 2, Weight: route.DefaultWeight},
	}}, 1)
	for i := range 100 {
		if k := fmt.Sprintf("C$f%02d", i); srv.isPrimary(k) {
			return srv, k
		}
	}
	t.Fatal("the node heads none of 100 keys")
	return nil, ""
}

// TestStripeForMatchesFNV pins the inline hash to hash/fnv's 32-bit FNV-1a:
// the stripe a key maps to did not move when the hash went inline.
func TestStripeForMatchesFNV(t *testing.T) {
	var s Server
	for _, k := range []string{"", "k", "C$f00", "lock/L", "a-rather-long-class-name$and-a-long-field-name"} {
		h := fnv.New32a()
		h.Write([]byte(k))
		m := s.stripeFor(k)
		m.Unlock()
		if want := &s.stripes[h.Sum32()%replStripes]; m != want {
			t.Errorf("stripeFor(%q) is not the FNV-1a stripe", k)
		}
	}
}

// TestServerHotPathAllocs pins the allocations of the steps every write and
// every session miss take on the server: the write's ordering stripe and
// the primary check allocate nothing, and the GetLease and Put handlers
// allocate only what the store or the session table keeps — the decoded
// key string, and on Put the stored copy of the value. The request/reply
// pair is recycled, and an unreplicated forward builds nothing.
func TestServerHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, key := newViewServer(t)
	if n := testing.AllocsPerRun(1000, func() { srv.stripeFor(key).Unlock() }); n != 0 {
		t.Errorf("stripeFor = %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { srv.isPrimary(key) }); n != 0 {
		t.Errorf("isPrimary = %v allocs, want 0", n)
	}

	srv.store.Put(key, []byte("value"), nil)
	id, _ := srv.sessions.open(nopPusher{})
	for _, h := range []struct {
		method  string
		payload []byte
		floor   float64
	}{
		// Put first: with no session caching the key, the write's
		// invalidation round has nobody to wait for.
		{"Put", transport.Encode(&putReq{Key: key, Val: []byte("value")}), 2},
		{"GetLease", transport.Encode(&leaseReq{ID: id, Key: key}), 1},
		// A backup installing one forwarded write keeps the key and a copy
		// of the value; the record is read in place.
		{"Replicate", transport.Encode(&replReq{Recs: entryRec(key, entry{value: []byte("value"), version: 1 << 40})}), 2},
	} {
		serve := serveFunc(t, srv, h.method, h.payload)
		serve() // registers the session's interest on the first lease
		if n := testing.AllocsPerRun(1000, serve); n > h.floor {
			t.Errorf("%s handler = %v allocs, want <= %v", h.method, n, h.floor)
		} else {
			t.Logf("%s handler: %v allocs", h.method, n)
		}
	}
}

// serveFunc returns a call of the server's dispatch for one method and
// payload that fails the test on a handler error.
func serveFunc(t *testing.T, srv *Server, method string, payload []byte) func() {
	req := &transport.Request{Service: ServiceName, Method: method, Payload: payload}
	return func() {
		out, err := srv.handle(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		transport.ReleasePayload(out)
	}
}

// ackPusher is a session connection whose client acknowledges each
// invalidation as it is sent, as a live session's acker does.
type ackPusher struct {
	mgr   *sessionMgr
	id    atomic.Uint64
	acked atomic.Int64
}

func (p *ackPusher) Send(kind, seq uint64, topic string, payload []byte) error {
	if seq > 0 {
		p.mgr.ack(p.id.Load(), seq)
		p.acked.Add(1)
	}
	return nil
}

func (p *ackPusher) Closed() bool { return false }

// TestPutInvalidationRoundAllocs pins a Put that revokes one session's
// cached copy and waits for its ack at the Put floor: the round's waiter
// is pooled, the session's ack list keeps its array, and the deadline is
// the sweeper's, so the round itself allocates no channel and no timer.
// Each run re-registers the interest the previous write revoked; the
// index slice that takes is recycled too.
func TestPutInvalidationRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, key := newViewServer(t)
	p := &ackPusher{mgr: srv.sessions}
	id, _ := srv.sessions.open(p)
	p.id.Store(id)
	put := serveFunc(t, srv, "Put", transport.Encode(&putReq{Key: key, Val: []byte("value")}))
	round := func() {
		if _, _, _, err := srv.sessions.lease(id, key); err != nil {
			t.Fatalf("lease: %v", err)
		}
		put()
	}
	const runs = 1000
	n := testing.AllocsPerRun(runs, round)
	if got := p.acked.Load(); got < runs {
		t.Fatalf("%d invalidations acked over %d writes: the rounds did not wait on the session", got, runs)
	}
	if n > 2 {
		t.Errorf("Put with an acked invalidation = %v allocs, want <= 2 (the Put floor)", n)
	} else {
		t.Logf("Put with an acked invalidation: %v allocs", n)
	}
}

// TestForwardAllocs pins one replicated write's forward at R=2. The
// primary's record sits in its stripe's request, so the forward builds no
// request; what the run counts is the backup (in process here) keeping the
// key and the value copy.
func TestForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var srvs [2]*Server
	var members []route.Member
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		members = append(members, route.Member{Addr: srv.Addr(), UID: int64(i + 1), Weight: route.DefaultWeight})
	}
	primary, backup := srvs[0], srvs[1]
	for _, srv := range srvs {
		srv.SetView(route.Table{Epoch: 1, Members: members}, 2)
	}
	key := ""
	for i := range 100 {
		if k := fmt.Sprintf("C$f%02d", i); primary.isPrimary(k) {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("the primary heads none of 100 keys")
	}
	rec := entryRec(key, entry{value: []byte("value"), version: 1 << 40})
	forward := func() {
		st := primary.stripeFor(key)
		st.req.Recs = append(st.req.Recs, rec...)
		primary.forward(key, &st.req)
		st.release()
	}
	forward()
	if got, err := backup.store.Get(key); err != nil || string(got.Value) != "value" {
		t.Fatalf("backup holds %q, %v after the forward", got.Value, err)
	}
	if n := testing.AllocsPerRun(1000, forward); n > 2 {
		t.Errorf("forward at R=2 = %v allocs, want <= 2", n)
	} else {
		t.Logf("forward at R=2: %v allocs", n)
	}
}

// TestSessionWarmMissAllocs pins a session cache miss whose entry was
// freed by an invalidation at three allocations: on the client the value
// copy and the key clone — the entry itself comes off the free list — and
// on the (in-process) server the decoded key of the GetLease.
func TestSessionWarmMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	srv, cli := newSessionNode(t)
	const key = "C$field" // longer than one byte: Go interns 1-byte strings
	if _, err := cli.Put(key, []byte("value")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sess := openSession(t, srv.Addr(), SessionOptions{})
	// A sequence-0 invalidation drops the entry without fencing the key's
	// next install, and with acks off the run counts no ack round trip.
	sess.dropAcks.Store(true)
	miss := func() {
		sess.onEvent(transport.Event{Kind: evInval, Topic: key})
		if v, err := sess.Get(key); err != nil || string(v.Value) != "value" {
			t.Fatalf("Get = %q, %v", v.Value, err)
		}
	}
	miss()
	misses := sess.Stats().Misses
	n := testing.AllocsPerRun(1000, miss)
	if st := sess.Stats(); st.Misses-misses < 1000 || st.Entries != 1 {
		t.Fatalf("runs were not cached misses: %+v", st)
	}
	if n > 3 {
		t.Errorf("warm session miss = %v allocs, want <= 3", n)
	} else {
		t.Logf("warm session miss: %v allocs", n)
	}
}
