package kvstore

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// TestDispatchTables pins the server's two tables: the sentinel<->code
// error table and the express bits of the method table.
func TestDispatchTables(t *testing.T) {
	srv, err := transport.Serve("127.0.0.1:0", func(req *transport.Request) ([]byte, error) {
		if req.Method == "unmapped" {
			return nil, errors.New("disk on fire")
		}
		for _, w := range wireErrors {
			if w.code.Error() == req.Method {
				return nil, wireError(fmt.Errorf("op failed: %w", w.err))
			}
		}
		return nil, fmt.Errorf("no sentinel for %q", req.Method)
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	roundTrip := func(method string) error {
		_, err := conn.Call(ServiceName, method, nil, 5*time.Second)
		return unwireError(err)
	}

	for _, w := range wireErrors {
		if err := roundTrip(w.code.Error()); !errors.Is(err, w.err) {
			t.Errorf("%s over the wire = %v, want errors.Is %v", w.code, err, w.err)
		}
	}
	var remote *transport.RemoteError
	if err := roundTrip("unmapped"); !errors.As(err, &remote) || remote.Msg != "disk on fire" {
		t.Errorf("unmapped error over the wire = %#v, want the *transport.RemoteError", err)
	}

	var express []string
	for name, m := range methods {
		if sessionControlExpress(ServiceName, name) != m.express {
			t.Errorf("sessionControlExpress(%q) disagrees with the table", name)
		}
		if m.express {
			express = append(express, name)
			if sessionControlExpress("other", name) {
				t.Errorf("express lane granted to another service's %q", name)
			}
		}
	}
	sort.Strings(express)
	if want := []string{"SessAck", "SessClose", "SessForget", "SessKeep"}; !reflect.DeepEqual(express, want) {
		t.Errorf("express methods = %v, want %v", express, want)
	}
}

// FuzzKVDispatch feeds arbitrary payloads to every method of the dispatch
// table, and to one unknown name, through an in-memory server's handler.
// Each call must return a reply or an error, never panic.
func FuzzKVDispatch(f *testing.F) {
	names := make([]string, 0, len(methods)+1)
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	names = append(names, "NoSuchMethod")
	index := func(name string) uint8 { return uint8(sort.SearchStrings(names[:len(names)-1], name)) }

	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		f.Fatalf("NewServer: %v", err)
	}
	f.Cleanup(func() { srv.Close() })

	for i := range names {
		f.Add(uint8(i), []byte{})
	}
	f.Add(index("Put"), transport.Encode(&putReq{Key: "k", Val: []byte("v")}))
	f.Add(index("CAS"), transport.Encode(&casReq{Key: "k", Val: []byte("w"), ExpectVersion: 1}))
	f.Add(index("Add"), transport.Encode(&addReq{Key: "n", Delta: -7}))
	f.Add(index("TryLock"), transport.Encode(&lockReq{Name: "L", Owner: "a", Lease: time.Minute}))
	f.Add(index("Replicate"), transport.Encode(&replReq{
		Entries: map[string]Versioned{"k": {Value: []byte("r"), Version: 9}},
		Dels:    []string{"gone"},
	}))

	f.Fuzz(func(t *testing.T, m uint8, payload []byte) {
		req := &transport.Request{Service: ServiceName, Method: names[int(m)%len(names)], Payload: payload}
		out, err := srv.handle(req)
		if err != nil && out != nil {
			t.Fatalf("%s: error %v came with a %d-byte reply", req.Method, err, len(out))
		}
		transport.ReleasePayload(out)
	})
}

// TestReplReqDecodeReusesMaps pins the generated map decode the Replicate
// handler's recycled requests depend on: a non-nil target map is cleared
// and refilled in place, so nothing from the last request survives, while
// a fresh target decodes exactly as before — nil on a zero count.
func TestReplReqDecodeReusesMaps(t *testing.T) {
	var fresh replReq
	if err := transport.Decode(transport.Encode(&replReq{}), &fresh); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if fresh.Entries != nil || fresh.Locks != nil {
		t.Fatalf("zero counts decoded into a fresh target as non-nil maps: %+v", fresh)
	}

	r := replReq{
		Entries: map[string]Versioned{"stale": {Version: 1}},
		Locks:   map[string]LockInfo{"stale": {Owner: "x", Seq: 1}},
	}
	entries := reflect.ValueOf(r.Entries).UnsafePointer()
	want := map[string]Versioned{"a": {Value: []byte("1"), Version: 2}, "b": {Value: []byte("2"), Version: 3}}
	if err := transport.Decode(transport.Encode(&replReq{Entries: want}), &r); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if reflect.ValueOf(r.Entries).UnsafePointer() != entries {
		t.Error("decode replaced a non-nil target map instead of refilling it")
	}
	if !reflect.DeepEqual(r.Entries, want) {
		t.Errorf("Entries = %v, want %v", r.Entries, want)
	}
	if r.Locks == nil || len(r.Locks) != 0 {
		t.Errorf("Locks = %v, want the target map emptied by a zero count", r.Locks)
	}

	r.reset()
	if r.Entries == nil || len(r.Entries) != 0 {
		t.Errorf("reset: Entries = %v, want kept and empty", r.Entries)
	}
	big := make(map[string]Versioned, replKeep+1)
	for i := range replKeep + 1 {
		big[fmt.Sprint(i)] = Versioned{}
	}
	r.Entries = big
	if r.reset(); r.Entries != nil {
		t.Errorf("reset kept a map of %d entries, past replKeep", replKeep+1)
	}
}
