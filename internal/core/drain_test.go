package core

import (
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// TestDrainingSkeletonServesAndSteersDirectCalls talks to a skeleton
// directly (bypassing the stub) while its member drains. Under epoch
// routing the draining member does not refuse: it keeps serving whatever
// reaches it, and every reply piggybacks the post-shrink routing table —
// which no longer lists the member — so the caller is steered away within
// one round-trip (§2.5 without the redirect bounce).
func TestDrainingSkeletonServesAndSteersDirectCalls(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "draintest", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
		DrainTimeout: 2 * time.Second,
	})
	if err := pool.Resize(1); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	eps := pool.Endpoints()
	victim := eps[len(eps)-1] // highest UID: the one shrink removes

	// Start the shrink; the view is stamped before draining, so the victim
	// already holds the table that excludes it.
	done := make(chan error, 1)
	go func() { done <- pool.Resize(-1) }()

	// Talk to the victim directly while it drains. Depending on timing we
	// observe served calls carrying a corrective route update, or a closed
	// connection — both are the "removed member" signals the stub handles.
	var mu sync.Mutex
	var updates []route.Table
	c, err := transport.DialOpts(victim, transport.DialOptions{
		OnRouteUpdate: func(tab route.Table) {
			mu.Lock()
			updates = append(updates, tab)
			mu.Unlock()
		},
	})
	if err == nil {
		defer c.Close()
		// A reply may carry a pre-shrink table if the call lands in the
		// instant before the victim receives the shrunken one; keep calling
		// until a table that excludes the victim arrives (the corrective
		// signal) or the connection is torn down (member fully removed).
		excludesVictim := func(u route.Table) bool {
			for _, m := range u.Members {
				if m.Addr == victim && !m.Draining {
					return false
				}
			}
			return true
		}
		payload := transport.Encode(&addArgs{N: 1})
		corrected, severed := false, false
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) && !corrected && !severed {
			if _, callErr := c.Call("draintest", "Add", payload, time.Second); callErr != nil {
				severed = true
				break
			}
			mu.Lock()
			for _, u := range updates {
				if excludesVictim(u) {
					corrected = true
				}
			}
			mu.Unlock()
		}
		if !corrected && !severed {
			t.Error("draining member neither steered the caller away nor closed the connection")
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Resize(-1): %v", err)
	}
	if got := pool.Size(); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
}

// TestConfigValidationTable exercises every Config rejection path.
func TestConfigValidationTable(t *testing.T) {
	env := newTestEnv(t, 4)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty name", Config{MinPoolSize: 2, MaxPoolSize: 4}},
		{"min below two", Config{Name: "x", MinPoolSize: 1, MaxPoolSize: 4}},
		{"max below min", Config{Name: "x", MinPoolSize: 3, MaxPoolSize: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPool(tc.cfg, newCounterFactory(), env.deps()); err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
		})
	}
	if _, err := NewPool(Config{Name: "x", MinPoolSize: 2, MaxPoolSize: 4}, nil, env.deps()); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := NewPool(Config{Name: "x", MinPoolSize: 2, MaxPoolSize: 4}, newCounterFactory(), Deps{}); err == nil {
		t.Fatal("empty deps accepted")
	}
}
