package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

// Load phases. Samples are kept only in the two measurement windows:
// window A (untraced) and window B (traced, only in a traced run).
const (
	phaseWarm int32 = iota
	phaseA
	phaseB
	phaseCool
	phaseStop
)

const nWindows = 2

func windowOf(ph int32) int {
	switch ph {
	case phaseA:
		return 0
	case phaseB:
		return 1
	}
	return -1
}

// slotGen produces one slot's invocations and verifies their replies.
// next is called with a fresh request id; done gets the outcome of the
// invocation next described.
type slotGen interface {
	next(id uint64) (method string, payload []byte, heavy bool)
	done(reply []byte, err error, chk *checker)
}

// Samples are kept per half-second sub-window; a window's figures are the
// medians of its sub-windows' figures, so a burst of interference shorter
// than half the window moves them little.
const subWindow = int64(500 * time.Millisecond)

// A sample packs one successful invocation: its latency in ns in the low
// latBits bits, the index of the sub-window it was issued in above them,
// and whether it was of the workload's heavy class in heavyBit.
const (
	latBits  = 40
	latMask  = 1<<latBits - 1
	heavyBit = 1 << 62
	subMask  = 1<<(62-latBits) - 1
)

// maxRate bounds the invocations per second a window can record. The
// sample buffer is sized from it and written through before the load
// starts, so resident memory does not grow with the number of samples (a
// faster run would otherwise show a higher peak_rss_mb) and the buffer can
// be left out of peak_rss_mb exactly.
const maxRate = 150_000

// sampleLog is a fixed buffer the lanes of one window append samples to.
type sampleLog struct {
	buf []int64
	n   atomic.Int64
}

func newSampleLog(seconds float64) *sampleLog {
	buf := make([]int64, int(seconds*maxRate)+1)
	for i := range buf {
		buf[i] = -1 // fault every page in now
	}
	return &sampleLog{buf: buf}
}

func (s *sampleLog) add(v int64) {
	if i := s.n.Add(1) - 1; i < int64(len(s.buf)) {
		s.buf[i] = v
	}
}

// all returns the samples added, and whether any did not fit.
func (s *sampleLog) all() ([]int64, bool) {
	n := s.n.Load()
	return s.buf[:min(n, int64(len(s.buf)))], n > int64(len(s.buf))
}

// slot is one outstanding-invocation lane of a caller: it issues an
// invocation with Stub.InvokeAsync, waits for it, checks it and issues the
// next, so each caller keeps as many invocations in flight as it has
// slots (a closed loop).
type slot struct {
	gen     slotGen
	failedW [nWindows]int64
	issued  int64 // every phase
	failed  int64
}

// load runs callers×slots closed-loop lanes against one stub.
type load struct {
	stub  *core.Stub
	tr    *tracer
	chk   *checker
	ids   *atomic.Uint64
	phase atomic.Int32
	slots []*slot
	logs  [nWindows]*sampleLog // nil for a load that measures nothing
	wg    sync.WaitGroup
	// at holds when each phase began (ns since epoch). Written before the
	// phase is published, so lanes that see the phase see its start.
	at [phaseStop + 1]int64
}

func startLoad(stub *core.Stub, tr *tracer, chk *checker, ids *atomic.Uint64, gens []slotGen, logs [nWindows]*sampleLog) *load {
	l := &load{stub: stub, tr: tr, chk: chk, ids: ids, logs: logs}
	l.at[phaseWarm] = now()
	for _, g := range gens {
		sl := &slot{gen: g}
		l.slots = append(l.slots, sl)
		l.wg.Add(1)
		go l.run(sl)
	}
	return l
}

// enter switches every lane to phase ph.
func (l *load) enter(ph int32) {
	l.at[ph] = now()
	l.phase.Store(ph)
}

// stop ends the load and waits for every lane's last invocation.
func (l *load) stop() {
	l.enter(phaseStop)
	l.wg.Wait()
}

func (l *load) run(sl *slot) {
	defer l.wg.Done()
	for {
		ph := l.phase.Load()
		if ph == phaseStop {
			return
		}
		id := l.ids.Add(1)
		method, payload, heavy := sl.gen.next(id)
		t0 := now()
		ac := l.stub.InvokeAsync(method, payload)
		<-ac.Done()
		out, err := ac.Result()
		t1 := now()
		if l.tr.on.Load() {
			l.tr.add(span{id: id, kind: spanInvoke, start: t0, end: t1})
		}
		sl.gen.done(out, err, l.chk)
		if out != nil {
			transport.ReleasePayload(out)
		}
		sl.issued++
		w := windowOf(ph)
		if err != nil {
			sl.failed++
			l.chk.invocationFailed(method, err)
			if w >= 0 {
				sl.failedW[w]++
			}
			continue
		}
		if w >= 0 {
			sub := min((t0-l.at[ph])/subWindow, subMask)
			v := min(t1-t0, latMask) | sub<<latBits
			if heavy {
				v |= heavyBit
			}
			l.logs[w].add(v)
		}
	}
}

// mark is a reading taken at a sub-window boundary.
type mark struct {
	cpu   float64 // process CPU seconds
	steal int64   // host steal ticks, -1 if not reported
}

func takeMark() mark { return mark{cpu: cpuSeconds(), steal: hostSteal()} }

// subStats are one sub-window's figures.
type subStats struct {
	ops                   float64 // invocations issued in it and completed, per second
	p50, p90, p99         float64 // ns
	heavyP50              float64 // ns
	cpuPerOp              float64 // process CPU µs per invocation
	n, beyond90, beyond99 int
	nHeavy                int
	steal                 int64 // host steal ticks during it, -1 if not reported
}

// window is one measurement window: the figures of each of its whole
// sub-windows, which of them the window's figures come from, and totals.
type window struct {
	subs     []subStats
	use      []bool
	n        int // successful invocations issued in the window
	failed   int64
	overflow bool // the sample buffer was too small
}

// window gathers window w's samples into len(marks)-1 sub-windows of
// subLen; marks are the readings at their boundaries. Samples issued after
// the last whole sub-window (a late phase switch) are dropped.
func (l *load) window(w int, subLen int64, marks []mark) window {
	nSubs := max(len(marks)-1, 0)
	lat := make([][]int64, nSubs)
	heavy := make([][]int64, nSubs)
	out := window{subs: make([]subStats, nSubs)}
	for _, sl := range l.slots {
		out.failed += sl.failedW[w]
	}
	var samples []int64
	if l.logs[w] != nil {
		samples, out.overflow = l.logs[w].all()
	}
	for _, v := range samples {
		sub := int(v>>latBits) & subMask
		if sub >= nSubs {
			continue
		}
		d := v & latMask
		lat[sub] = append(lat[sub], d)
		if v&heavyBit != 0 {
			heavy[sub] = append(heavy[sub], d)
		}
	}
	steal := make([]int64, nSubs)
	for i := range out.subs {
		slices.Sort(lat[i])
		slices.Sort(heavy[i])
		n := len(lat[i])
		out.n += n
		steal[i] = stealBetween(marks[i].steal, marks[i+1].steal)
		out.subs[i] = subStats{
			ops:      float64(n) / (float64(subLen) / 1e9),
			p50:      quantile(lat[i], 0.5),
			p90:      quantile(lat[i], 0.90),
			p99:      quantile(lat[i], 0.99),
			heavyP50: quantile(heavy[i], 0.5),
			cpuPerOp: (marks[i+1].cpu - marks[i].cpu) * 1e6 / float64(n),
			n:        n,
			beyond90: n - int(math.Ceil(0.90*float64(n))),
			beyond99: n - int(math.Ceil(0.99*float64(n))),
			nHeavy:   len(heavy[i]),
			steal:    steal[i],
		}
	}
	out.use = quietest(steal)
	return out
}

// used returns the sub-windows a window's figures come from.
func (w window) used() []subStats {
	var q []subStats
	for i, s := range w.subs {
		if w.use[i] {
			q = append(q, s)
		}
	}
	return q
}

// median returns the median of f over the sub-windows in use.
func (w window) median(f func(subStats) float64) float64 {
	used := w.used()
	xs := make([]float64, len(used))
	for i, s := range used {
		xs[i] = f(s)
	}
	return medianF(xs)
}

func (l *load) totals() (issued, failed int64) {
	for _, sl := range l.slots {
		issued += sl.issued
		failed += sl.failed
	}
	return issued, failed
}

// checker collects output-check violations and a sample of invocation
// errors. A violation fails the run; an invocation error only counts as
// failed.
type checker struct {
	mu         sync.Mutex
	violations int
	msgs       []string
	errs       map[string]int
	// Violations of ordering checks, which hold only while every
	// invocation runs exactly once; resolveOrdering decides whether they count.
	ordering  int
	orderMsgs []string
}

func newChecker() *checker { return &checker{errs: make(map[string]int)} }

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// orderFail records a violation of an ordering check: a read older than
// the reader's own last acknowledged write. A stub that retried an
// invocation, or an invocation that failed, may leave an attempt that
// lands after a later acknowledged write, so such a read is legal then.
func (c *checker) orderFail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ordering++
	if len(c.orderMsgs) < 10 {
		c.orderMsgs = append(c.orderMsgs, fmt.Sprintf(format, args...))
	}
}

// resolveOrdering counts the ordering violations as violations when every
// invocation ran exactly once, and returns how many there were.
func (c *checker) resolveOrdering(exactlyOnce bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if exactlyOnce {
		c.violations += c.ordering
		c.msgs = append(c.msgs, c.orderMsgs...)
	}
	return c.ordering
}

func (c *checker) invocationFailed(method string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 10 || c.errs[method+": "+err.Error()] > 0 {
		c.errs[method+": "+err.Error()]++
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations == 0
}

// sleepUntil waits until deadline (ns since epoch).
func sleepUntil(deadline int64) {
	if d := time.Duration(deadline - now()); d > 0 {
		time.Sleep(d)
	}
}
