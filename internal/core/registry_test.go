package core

import (
	"errors"
	"testing"

	"elasticrmi/internal/transport"
)

func startRegistry(t *testing.T) (*RegistryServer, *RegistryClient) {
	t.Helper()
	srv, err := NewRegistryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewRegistryServer: %v", err)
	}
	cli, err := DialRegistry(srv.Addr())
	if err != nil {
		t.Fatalf("DialRegistry: %v", err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

func TestRegistryBindLookupUnbind(t *testing.T) {
	_, cli := startRegistry(t)
	if _, err := cli.Lookup("nope"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Lookup(missing) = %v, want ErrNotBound", err)
	}
	if err := cli.Bind("cache", []string{"a:1", "b:2"}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	eps, err := cli.Lookup("cache")
	if err != nil || len(eps) != 2 || eps[0] != "a:1" {
		t.Fatalf("Lookup = %v, %v", eps, err)
	}
	// Rebinding replaces.
	if err := cli.Bind("cache", []string{"c:3"}); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	eps, _ = cli.Lookup("cache")
	if len(eps) != 1 || eps[0] != "c:3" {
		t.Fatalf("after rebind = %v", eps)
	}
	names, err := cli.List()
	if err != nil || len(names) != 1 || names[0] != "cache" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := cli.Unbind("cache"); err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	if _, err := cli.Lookup("cache"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Lookup after unbind = %v, want ErrNotBound", err)
	}
}

func TestMuxDispatch(t *testing.T) {
	m := NewMux()
	Handle(m, "Double", func(a addArgs) (addReply, error) {
		return addReply{Total: 2 * a.N}, nil
	})
	Handle(m, "Fail", func(Empty) (Empty, error) {
		return Empty{}, errors.New("app error")
	})
	out, err := m.HandleCall("Double", transport.Encode(&addArgs{N: 21}))
	if err != nil {
		t.Fatalf("Double: %v", err)
	}
	var got addReply
	if err := transport.Decode(out, &got); err != nil || got.Total != 42 {
		t.Fatalf("Double = %d, %v", got.Total, err)
	}
	if _, err := m.HandleCall("Missing", nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
	if _, err := m.HandleCall("Fail", transport.Encode(&Empty{})); err == nil || err.Error() != "app error" {
		t.Fatalf("Fail err = %v", err)
	}
	if got := len(m.handlers); got != 2 {
		t.Fatalf("methods = %d", got)
	}
}
