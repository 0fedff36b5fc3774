package main

import (
	"bufio"
	"context"
	"io"
	"strings"
	"testing"

	"elasticrmi/internal/core"
)

// TestRegistryAndAdminList starts the registry subcommand on an ephemeral
// port in-process and drives it with the admin subcommand, before and after
// a pool name is bound.
func TestRegistryAndAdminList(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close() // unblocks the registry's writes if the test fails early
	served := make(chan error, 1)
	go func() { served <- run(ctx, []string{"registry", "-addr", "127.0.0.1:0"}, pw) }()
	lines := bufio.NewReader(pr)
	first, err := lines.ReadString('\n')
	if err != nil {
		t.Fatalf("reading registry banner: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "ermi registry listening on ")
	if !ok {
		t.Fatalf("registry banner = %q", first)
	}
	go io.Copy(io.Discard, lines) // the shutdown line

	list := func() string {
		t.Helper()
		var out strings.Builder
		if err := run(ctx, []string{"admin", "-registry", addr, "list"}, &out); err != nil {
			t.Fatalf("admin list: %v", err)
		}
		return out.String()
	}
	if got := list(); got != "no pools bound\n" {
		t.Fatalf("empty registry: admin list = %q", got)
	}

	reg, err := core.DialRegistry(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Bind("counter", []string{"127.0.0.1:9001", "127.0.0.1:9002"}); err != nil {
		t.Fatal(err)
	}
	if got, want := list(), "2 members, sentinel 127.0.0.1:9001"; !strings.HasPrefix(got, "counter ") || !strings.Contains(got, want) {
		t.Fatalf("admin list = %q, want the counter pool with %q", got, want)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("registry: %v", err)
	}
}

// TestUsageErrors: every malformed invocation fails before dialing anything
// and carries the usage text.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"registry", "-port", "1"},
		{"admin"},
		{"admin", "status"},
		{"admin", "top"},
		{"demo", "-rps", "many"},
	} {
		err := run(context.Background(), args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), usage) {
			t.Errorf("run(%q) = %v, want an error carrying the usage text", args, err)
		}
	}
}
