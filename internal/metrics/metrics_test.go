package metrics

import (
	"testing"
	"time"

	"elasticrmi/internal/simclock"
)

func TestWindowPerMethodStats(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(1, clock)
	for i := 0; i < 10; i++ {
		m.Observe("get", 10*time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		m.Observe("put", 40*time.Millisecond)
	}
	clock.Advance(10 * time.Second)

	stats, usage := m.Window()
	if len(stats) != 2 {
		t.Fatalf("stats = %v", stats)
	}
	byName := StatsMap(stats)
	get := byName["get"]
	if get.Calls != 10 || get.AvgLatency != 10*time.Millisecond {
		t.Fatalf("get = %+v", get)
	}
	if got, want := get.RatePerSec, 1.0; got != want {
		t.Fatalf("get rate = %v, want %v", got, want)
	}
	put := byName["put"]
	if put.Calls != 5 || put.AvgLatency != 40*time.Millisecond {
		t.Fatalf("put = %+v", put)
	}
	// Busy time: 10x10ms + 5x40ms = 300ms over 10s at 1 core = 3%.
	if usage.CPU < 2.9 || usage.CPU > 3.1 {
		t.Fatalf("cpu = %v, want ~3", usage.CPU)
	}
}

func TestWindowResets(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(1, clock)
	m.Observe("x", time.Second)
	clock.Advance(time.Second)
	m.Window()
	clock.Advance(time.Second)
	stats, usage := m.Window()
	if len(stats) != 0 || usage.CPU != 0 {
		t.Fatalf("window did not reset: %v %v", stats, usage)
	}
}

func TestCPUCappedAt100(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(1, clock)
	m.Observe("x", 10*time.Second) // more busy than elapsed
	clock.Advance(time.Second)
	_, usage := m.Window()
	if usage.CPU != 100 {
		t.Fatalf("cpu = %v, want capped at 100", usage.CPU)
	}
}

func TestCapacityScalesCPU(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(2, clock) // 2-core slice
	m.Observe("x", time.Second)
	clock.Advance(time.Second)
	_, usage := m.Window()
	if usage.CPU != 50 {
		t.Fatalf("cpu = %v, want 50 (1s busy / 1s x 2 cores)", usage.CPU)
	}
}

func TestBeginTracksInFlightAndBusy(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(1, clock)
	start := m.Begin()
	if m.InFlight() != 1 {
		t.Fatalf("in flight = %d, want 1", m.InFlight())
	}
	clock.Advance(100 * time.Millisecond)
	m.End("op", start)
	if m.InFlight() != 0 {
		t.Fatalf("in flight = %d, want 0", m.InFlight())
	}
	clock.Advance(900 * time.Millisecond)
	stats, usage := m.Window()
	if stats[0].AvgLatency != 100*time.Millisecond {
		t.Fatalf("latency = %v", stats[0].AvgLatency)
	}
	if usage.CPU < 9.9 || usage.CPU > 10.1 {
		t.Fatalf("cpu = %v, want ~10", usage.CPU)
	}
}

func TestRAMGaugeClamped(t *testing.T) {
	m := NewMeter(1, simclock.NewSim(time.Unix(0, 0)))
	m.SetRAMGauge(func() float64 { return 150 })
	_, usage := m.Window()
	if usage.RAM != 100 {
		t.Fatalf("ram = %v, want clamped 100", usage.RAM)
	}
	m.SetRAMGauge(func() float64 { return -5 })
	_, usage = m.Window()
	if usage.RAM != 0 {
		t.Fatalf("ram = %v, want clamped 0", usage.RAM)
	}
}

func TestPeekDoesNotReset(t *testing.T) {
	clock := simclock.NewSim(time.Unix(0, 0))
	m := NewMeter(1, clock)
	m.Observe("x", 500*time.Millisecond)
	clock.Advance(time.Second)
	u1 := m.Peek()
	u2 := m.Peek()
	if u1.CPU != u2.CPU || u1.CPU < 49 || u1.CPU > 51 {
		t.Fatalf("peek = %v then %v, want stable ~50", u1.CPU, u2.CPU)
	}
	stats, _ := m.Window()
	if len(stats) != 1 {
		t.Fatal("peek consumed the window")
	}
}

// TestBeginEndAllocsNothing pins the meter's per-invocation cost at zero
// allocations once the method has been seen.
func TestBeginEndAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewMeter(1, nil)
	allocs := testing.AllocsPerRun(1000, func() {
		m.End("op", m.Begin())
	})
	if allocs != 0 {
		t.Fatalf("Begin+End = %v allocs, want 0", allocs)
	}
	if m.InFlight() != 0 {
		t.Fatalf("in flight = %d after every End, want 0", m.InFlight())
	}
}
