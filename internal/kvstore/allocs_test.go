package kvstore

import (
	"fmt"
	"hash/fnv"
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
// the primary check allocate nothing, and the GetLease and Put handlers sit
// at their floors. What is left in the handlers is the decoded request and
// its key string, the reply, and on Put the stored copy of the value and
// the forward's delta map (replicated or not).
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

	srv.store.Put(key, []byte("value"))
	id, _ := srv.sessions.open(nopPusher{})
	for _, h := range []struct {
		method  string
		payload []byte
		floor   float64
	}{
		// Put first: with no session caching the key, the write's
		// invalidation round has nobody to wait for.
		{"Put", transport.Encode(&putReq{Key: key, Val: []byte("value")}), 6},
		{"GetLease", transport.Encode(&leaseReq{ID: id, Key: key}), 3},
	} {
		req := &transport.Request{Service: ServiceName, Method: h.method, Payload: h.payload}
		serve := func() {
			out, err := srv.handle(req)
			if err != nil {
				t.Fatalf("%s: %v", h.method, err)
			}
			transport.ReleasePayload(out)
		}
		serve() // registers the session's interest on the first lease
		if n := testing.AllocsPerRun(1000, serve); n > h.floor {
			t.Errorf("%s handler = %v allocs, want <= %v", h.method, n, h.floor)
		} else {
			t.Logf("%s handler: %v allocs", h.method, n)
		}
	}
}
