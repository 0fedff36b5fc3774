package cluster

import (
	"errors"
	"testing"
	"time"

	"elasticrmi/internal/simclock"
)

func TestAcquireReleaseAccounting(t *testing.T) {
	m, err := New(Config{Nodes: 4, SlicesPerNode: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Total() != 8 {
		t.Fatalf("total = %d, want 8", m.Total())
	}
	slices, err := m.Acquire(3)
	if err != nil || len(slices) != 3 {
		t.Fatalf("Acquire(3) = %d, %v", len(slices), err)
	}
	if m.InUse() != 3 {
		t.Fatalf("in use = %d, want 3", m.InUse())
	}
	for _, s := range slices {
		if err := m.Release(s); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	if m.InUse() != 0 {
		t.Fatalf("in use after release = %d, want 0", m.InUse())
	}
	if err := m.Release(slices[0]); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestAcquireSpreadsOverNodes(t *testing.T) {
	m, err := New(Config{Nodes: 4, SlicesPerNode: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	slices, err := m.Acquire(4)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	nodes := make(map[string]bool)
	for _, s := range slices {
		nodes[s.Node] = true
	}
	if len(nodes) != 4 {
		t.Fatalf("4 slices on %d nodes, want 4 distinct (§2.4 spreading)", len(nodes))
	}
}

func TestAcquirePartialGrant(t *testing.T) {
	m, err := New(Config{Nodes: 3, SlicesPerNode: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	slices, err := m.Acquire(10)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if len(slices) != 3 {
		t.Fatalf("granted %d, want 3 (l < k grants, §4.2)", len(slices))
	}
	if _, err := m.Acquire(1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("exhausted Acquire = %v, want ErrNoCapacity", err)
	}
}

func TestProvisioningLatencyApplied(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m, err := New(Config{
		Nodes: 2, SlicesPerNode: 1, Clock: clock,
		ProvisionLatency: func(util float64) time.Duration { return 10 * time.Second },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	done := make(chan time.Time, 1)
	go func() {
		if _, err := m.Acquire(1); err != nil {
			t.Error(err)
		}
		done <- clock.Now()
	}()
	// Wait for the goroutine to register its sleep, then advance.
	for clock.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	clock.Advance(10 * time.Second)
	at := <-done
	if got := at.Sub(time.Unix(0, 0)); got < 10*time.Second {
		t.Fatalf("acquire returned after %v, want >= 10s provisioning latency", got)
	}
}

func TestUtilizationNotifications(t *testing.T) {
	m, err := New(Config{Nodes: 4, SlicesPerNode: 1, UtilHigh: 0.75, UtilLow: 0.25})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	slices, err := m.Acquire(3) // utilization hits 0.75
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	select {
	case n := <-m.Notifications():
		if n.Kind != UtilizationHigh {
			t.Fatalf("notification kind = %v, want high", n.Kind)
		}
	default:
		t.Fatal("no high-utilization notification")
	}
	for _, s := range slices {
		m.Release(s)
	}
	select {
	case n := <-m.Notifications():
		if n.Kind != UtilizationLow {
			t.Fatalf("notification kind = %v, want low", n.Kind)
		}
	default:
		t.Fatal("no low-utilization notification")
	}
}

func TestFailNodeRevokesSlices(t *testing.T) {
	m, err := New(Config{Nodes: 2, SlicesPerNode: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	revokedCh := m.SubscribeRevoked()
	slices, err := m.Acquire(4)
	if err != nil || len(slices) != 4 {
		t.Fatalf("Acquire = %d, %v", len(slices), err)
	}
	victim := slices[0].Node
	m.FailNode(victim)
	revoked := 0
	for {
		select {
		case s := <-revokedCh:
			if s.Node != victim {
				t.Fatalf("revoked slice %d on %s, want only %s", s.ID, s.Node, victim)
			}
			revoked++
			continue
		default:
		}
		break
	}
	if revoked != 2 {
		t.Fatalf("revoked %d slices, want 2", revoked)
	}
	if m.Total() != 2 {
		t.Fatalf("total after failure = %d, want 2", m.Total())
	}
	// Releasing a revoked slice must not return it to the free pool: after
	// every slice is handed back, only the survivor node's can be granted.
	for _, s := range slices {
		err := m.Release(s)
		if s.Node == victim && err == nil {
			t.Fatalf("Release of revoked slice %d succeeded", s.ID)
		}
		if s.Node != victim && err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	got, err := m.Acquire(4)
	if err != nil || len(got) != 2 {
		t.Fatalf("Acquire after failure = %d, %v; want the survivor's 2", len(got), err)
	}
	for _, s := range got {
		if s.Node == victim {
			t.Fatalf("granted slice %d on failed node %s", s.ID, victim)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, SlicesPerNode: 1}); err == nil {
		t.Fatal("accepted zero nodes")
	}
	if _, err := New(Config{Nodes: 1, SlicesPerNode: 0}); err == nil {
		t.Fatal("accepted zero slices per node")
	}
	m, err := New(Config{Nodes: 1, SlicesPerNode: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Acquire(0); err == nil {
		t.Fatal("Acquire(0) succeeded")
	}
	if err := m.Release(nil); err == nil {
		t.Fatal("Release(nil) succeeded")
	}
}

func TestClosedManager(t *testing.T) {
	m, err := New(Config{Nodes: 1, SlicesPerNode: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := m.Acquire(1)
	if err != nil {
		t.Fatalf("Acquire(1): %v", err)
	}
	s := got[0]
	m.Close()
	if _, err := m.Acquire(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after close = %v, want ErrClosed", err)
	}
	if err := m.Release(s); !errors.Is(err, ErrClosed) {
		t.Fatalf("Release after close = %v, want ErrClosed", err)
	}
}
