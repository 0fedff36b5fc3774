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
	f.Add(index("Unlock"), transport.Encode(&unlockReq{Name: "L", Owner: "a"}))
	f.Add(index("Delete"), transport.Encode(&delReq{Key: "k"}))
	f.Add(index("Get"), transport.Encode(&getReq{Key: "k"}))
	f.Add(index("Keys"), transport.Encode(&keysReq{Prefix: "k"}))
	recs := seedStream()
	f.Add(index("Replicate"), transport.Encode(&replReq{Recs: recs}))
	f.Add(index("Replicate"), transport.Encode(&replReq{Recs: recs[:len(recs)-1]}))

	f.Fuzz(func(t *testing.T, m uint8, payload []byte) {
		req := &transport.Request{Service: ServiceName, Method: names[int(m)%len(names)], Payload: payload}
		out, err := srv.handle(req)
		if err != nil && out != nil {
			t.Fatalf("%s: error %v came with a %d-byte reply", req.Method, err, len(out))
		}
		transport.ReleasePayload(out)
	})
}
