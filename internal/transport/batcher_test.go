package transport

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/simclock"
)

// safeBuf is a goroutine-safe in-memory sink the flusher can write to while
// the test inspects it.
type safeBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuf) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *safeBuf) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// newTestBatcher wires a batcher to a sink; no read loop runs, so only the
// write path is exercised.
func newTestBatcher(t *testing.T, sink io.Writer, bo BatchOptions) (*batcher, *Client) {
	t.Helper()
	c := &Client{
		w:       newConnWriter(sink),
		pending: make(map[uint64]*Call),
		done:    make(chan struct{}),
	}
	b := newBatcher(c, bo)
	c.batch = b
	t.Cleanup(b.close)
	return b, c
}

func (b *batcher) setTarget(n int) {
	b.mu.Lock()
	b.target = n
	b.mu.Unlock()
}

func (b *batcher) getTarget() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.target
}

// drainFrames parses every complete frame in the sink, returning each
// frame's kind and metadata section (batch frames carry their entries
// there).
func drainFrames(t *testing.T, raw []byte) (kinds []frameKind, metas [][]byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	for {
		kind, meta, _, err := readFrame(br)
		if err != nil {
			return kinds, metas
		}
		kinds = append(kinds, kind)
		metas = append(metas, meta)
	}
}

// wireEntries counts invocations on the wire, looking through batch frames.
func wireEntries(t *testing.T, raw []byte) int {
	t.Helper()
	kinds, bodies := drainFrames(t, raw)
	total := 0
	for i, k := range kinds {
		switch k {
		case frameRequest, frameOneWay:
			total++
		case frameBatch:
			items, err := parseBatch(bodies[i], nil)
			if err != nil {
				t.Fatalf("parseBatch: %v", err)
			}
			total += len(items)
		default:
			t.Fatalf("unexpected frame kind %d", k)
		}
	}
	return total
}

func entry(seq uint64, oneway bool) batchEntry {
	e := batchEntry{seq: seq, service: "s", method: "m", payload: []byte{byte(seq)}, oneway: oneway}
	if !oneway {
		e.ca = newCall(nil, "s", "m", seq)
	}
	return e
}

// waitFor polls cond until it holds or the deadline fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestBatcherFlushesWithoutClockAdvance: at the initial threshold every
// enqueue wakes the flusher, so entries reach the wire with the sim clock
// frozen — sparse traffic never depends on the latency-bound timer.
func TestBatcherFlushesWithoutClockAdvance(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	var buf safeBuf
	b, _ := newTestBatcher(t, &buf, BatchOptions{MaxDelay: time.Minute, Clock: clk})

	b.enqueue(entry(1, false))
	b.enqueue(entry(2, true))
	waitFor(t, "both entries on the wire", func() bool { return wireEntries(t, buf.Snapshot()) == 2 })
}

// TestBatcherHonorsLatencyBoundUnderSimclock: an entry queued below the
// wake threshold (and with nobody blocked on it) is flushed by the timer no
// later than MaxDelay on the injected clock — and not before.
func TestBatcherHonorsLatencyBoundUnderSimclock(t *testing.T) {
	const maxDelay = 5 * time.Millisecond
	clk := simclock.NewSim(time.Unix(0, 0))
	var buf safeBuf
	b, _ := newTestBatcher(t, &buf, BatchOptions{MaxDelay: maxDelay, Clock: clk})
	b.setTarget(4)

	b.enqueue(entry(1, true)) // one-way: no future anyone could wait on
	waitFor(t, "latency-bound timer armed", func() bool { return clk.Pending() > 0 })
	time.Sleep(20 * time.Millisecond) // real time passes; sim time does not
	if buf.Len() != 0 {
		t.Fatal("entry flushed before the sim clock reached the latency bound")
	}

	clk.Advance(maxDelay)
	waitFor(t, "timer flush", func() bool { return buf.Len() > 0 })
	kinds, _ := drainFrames(t, buf.Snapshot())
	if len(kinds) != 1 || kinds[0] != frameOneWay {
		t.Fatalf("timer flush of a single one-way = %v, want one plain one-way frame", kinds)
	}
}

// TestBatcherCoalescesIntoBatchFrame: entries accumulating under the wake
// threshold go out as one batch frame whose entries decode back intact.
func TestBatcherCoalescesIntoBatchFrame(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	var buf safeBuf
	b, _ := newTestBatcher(t, &buf, BatchOptions{MaxDelay: time.Minute, Clock: clk})
	b.setTarget(4)

	b.enqueue(entry(10, false))
	b.enqueue(entry(11, true))
	b.enqueue(entry(12, false))
	b.enqueue(entry(13, false)) // hits the threshold: flusher drains all four
	waitFor(t, "batch on the wire", func() bool { return buf.Len() > 0 })
	kinds, bodies := drainFrames(t, buf.Snapshot())
	if len(kinds) != 1 || kinds[0] != frameBatch {
		t.Fatalf("frames = %v, want exactly one batch frame", kinds)
	}
	items, err := parseBatch(bodies[0], nil)
	if err != nil {
		t.Fatalf("parseBatch: %v", err)
	}
	if len(items) != 4 {
		t.Fatalf("batch carried %d entries, want 4", len(items))
	}
	for i, want := range []struct {
		seq    uint64
		oneway bool
	}{{10, false}, {11, true}, {12, false}, {13, false}} {
		if items[i].req.Seq != want.seq || items[i].oneway != want.oneway {
			t.Fatalf("entry %d = seq %d oneway %v, want seq %d oneway %v",
				i, items[i].req.Seq, items[i].oneway, want.seq, want.oneway)
		}
		if items[i].req.Service != "s" || items[i].req.Method != "m" {
			t.Fatalf("entry %d = %s.%s", i, items[i].req.Service, items[i].req.Method)
		}
	}
}

// TestBatcherTimerFlushMatchesTargetToDemand: a timer flush below the wake
// threshold resets the threshold to the observed demand, so the next burst
// of that size flushes on arrival instead of waiting out the timer again.
func TestBatcherTimerFlushMatchesTargetToDemand(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	var buf safeBuf
	b, _ := newTestBatcher(t, &buf, BatchOptions{MaxDelay: time.Millisecond, Clock: clk})
	b.setTarget(8)

	b.enqueue(entry(1, true))
	b.enqueue(entry(2, true))
	b.enqueue(entry(3, true))
	waitFor(t, "timer armed", func() bool { return clk.Pending() > 0 })
	clk.Advance(time.Millisecond)
	waitFor(t, "timer flush", func() bool { return wireEntries(t, buf.Snapshot()) == 3 })
	if target := b.getTarget(); target != 3 {
		t.Fatalf("target = %d after timer flush of 3, want 3", target)
	}
	// A burst of exactly that demand now flushes with the clock frozen.
	b.enqueue(entry(4, true))
	b.enqueue(entry(5, true))
	b.enqueue(entry(6, true))
	waitFor(t, "matched burst flushed without the timer", func() bool {
		return wireEntries(t, buf.Snapshot()) == 6
	})
}

// gatedWriter blocks every Write until released, simulating a saturated
// connection.
type gatedWriter struct {
	buf  safeBuf
	gate chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	return g.buf.Write(p)
}

// TestBatcherGrowsTargetUnderPressure: while a write is in flight, later
// entries accumulate; a drain that outgrows the wake threshold doubles it —
// demand outpacing the writer is when coalescing pays.
func TestBatcherGrowsTargetUnderPressure(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	gw := &gatedWriter{gate: make(chan struct{})}
	b, _ := newTestBatcher(t, gw, BatchOptions{MaxDelay: time.Minute, Clock: clk})

	b.enqueue(entry(1, true)) // wakes the flusher; its write blocks on the gate
	waitFor(t, "flusher stuck in the gated write", func() bool {
		b.mu.Lock()
		n := len(b.queue)
		b.mu.Unlock()
		return n == 0
	})
	// The entries accumulating behind the blocked write form the next drain.
	b.enqueue(entry(2, true))
	b.enqueue(entry(3, true))
	close(gw.gate) // open the connection back up
	waitFor(t, "all entries on the wire", func() bool { return wireEntries(t, gw.buf.Snapshot()) == 3 })
	waitFor(t, "target growth under pressure", func() bool { return b.getTarget() >= 2 })
}

// TestWaitFlushesQueuedEntry: a caller blocking on a still-queued future
// forces the flush immediately — request/response traffic never pays the
// latency bound, however large the wake threshold.
func TestWaitFlushesQueuedEntry(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	// An hour-long latency bound: only flush-on-wait can complete the call
	// within the test's lifetime.
	c, err := DialOpts(srv.Addr(), DialOptions{Timeout: 2 * time.Second, Batch: BatchOptions{MaxDelay: time.Hour}})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	c.batch.setTarget(64)

	start := time.Now()
	out, err := c.Go("svc", "Echo", []byte("kick")).Wait(10 * time.Second)
	if err != nil || string(out) != "kick" {
		t.Fatalf("Wait on queued call: %q, %v", out, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("flush-on-wait took %v", took)
	}
}

// TestBatcherCloseFailsQueuedFutures: closing with entries still queued
// completes their futures with ErrClosed instead of leaving them hanging.
func TestBatcherCloseFailsQueuedFutures(t *testing.T) {
	clk := simclock.NewSim(time.Unix(0, 0))
	var buf safeBuf
	b, c := newTestBatcher(t, &buf, BatchOptions{MaxDelay: time.Minute, Clock: clk})
	b.setTarget(4)

	e := entry(1, false)
	c.mu.Lock()
	c.pending[e.seq] = e.ca
	c.mu.Unlock()
	b.enqueue(e)
	select {
	case <-e.ca.done:
		t.Fatal("queued entry completed before close")
	default:
	}
	b.close()
	select {
	case <-e.ca.done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued future not failed by close")
	}
	if err := e.ca.err(); err == nil {
		t.Fatal("queued future closed without error")
	}
}
