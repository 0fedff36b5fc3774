// Command benchmark measures the ElasticRMI stack end to end. It deploys,
// in this one process and over loopback TCP, cluster slices, a replicated
// in-memory kvstore cluster, an elastic pool of the benchmark's own class
// and a core.Stub in front of it, drives one closed-loop workload, checks
// the outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// measures half the time untraced and half traced, and reports the
// per-layer metrics: spans the benchmark records around its calls into
// each layer, direct probes of the transport, WAL and store layers, and
// the tracing overhead. See design.json beside this file.
//
// Build and run it with run.py from the repository root:
//
//	python3 benchmark/run.py --workload rmi-echo --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

// Load shape: callers share one stub, each keeping slotsPer invocations
// in flight, enough to keep two cores busy.
const (
	callers  = 2
	slotsPer = 8
	warmup   = 500 * time.Millisecond
	// Set-ups per untraced run (a traced run sets up once); setup_s is
	// their median.
	setupMinReps = 5
	setupMaxReps = 100
	setupMinTime = 500 * time.Millisecond

	probeCycles  = 128 // grow/serve/shrink cycles of the resize probe
	probePeriod  = 30 * time.Millisecond
	probeSlots   = 4 // lanes of light load during the resize probe
	churnStepMin = 30 * time.Millisecond
	churnStepMax = 50 * time.Millisecond
	churnPeak    = 6
	coolDown     = 100 * time.Millisecond
)

type workload struct {
	name    string
	state   bool // stateful class: members use the store through their own kvstore.ClusterSession
	maxPool int
	churn   bool // resize along the churn schedule during the load
}

// workloads are the benchmark's workloads, as listed in BENCHMARK.json.
var workloads = []*workload{
	{name: "rmi-echo", maxPool: 3},
	{name: "state-read", state: true, maxPool: 3},
	{name: "elastic-churn", maxPool: churnPeak, churn: true},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: rmi-echo, state-read or elastic-churn")
		seed    = flag.Int64("seed", 1, "seed for every random choice of the workload")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		scratch = flag.String("scratch", ".bench_build", "directory for the store's files and span dumps")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep, err := execute(w, *seed, *seconds, *trace == 1, *scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := rep.print(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// report is what one run prints: notes, metrics and the check outcome.
type report struct {
	notes     []string
	metrics   []metric
	correct   bool
	attempted int64
	failed    int64
}

type metric struct {
	name, unit string
	value      float64
	detail     string // sample count and base, for the human-readable lines
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, value float64, detailFormat string, args ...any) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, detail: fmt.Sprintf(detailFormat, args...)})
}

func (r *report) print() error {
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]jv)}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no samples", m.name)
		}
		fmt.Printf("metric %-32s %14.4f %-10s %s\n", m.name, m.value, m.unit, m.detail)
		out.Metrics[m.name] = jv{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// execute deploys the stack, runs the workload and builds the report.
func execute(w *workload, seed int64, seconds float64, traced bool, scratch string) (*report, error) {
	runDir, err := filepath.Abs(filepath.Join(scratch, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rep := &report{}
	rep.note("host: nproc=%d GOMAXPROCS=%d go=%s net=loopback-tcp wal_dir_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(runDir))
	rep.note("workload=%s seed=%d seconds=%g trace=%t callers=%d inflight_per_caller=%d",
		w.name, seed, seconds, traced, callers, slotsPer)

	tr := &tracer{}
	chk := newChecker()
	var ids atomic.Uint64

	// Set-up: deploy and preload the working set, at least setupMinReps
	// times and for at least setupMinTime in all (a cheap set-up repeats
	// more, up to setupMaxReps); the last deployment is the one measured.
	var setups []int64
	var total int64
	var st *stack
	var ks *keyspace
	for i := 0; ; i++ {
		t0 := now()
		st, err = deploy(w, tr)
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		if w.state {
			ks = newKeyspace(callers, stateKeys, ctrsPer)
			if err := st.preload(ks, &ids, callers*slotsPer); err != nil {
				st.close()
				return nil, err
			}
		}
		setups = append(setups, now()-t0)
		total += setups[i]
		if traced || i+1 >= setupMaxReps || (i+1 >= setupMinReps && total >= int64(setupMinTime)) {
			break
		}
		st.close()
	}
	defer st.close()

	// Every random choice derives from the seed: one source per lane, one
	// for the churn schedule, one per probe.
	rng := rand.New(rand.NewSource(seed))
	var gens []slotGen
	for c := range callers {
		for range slotsPer {
			r := rand.New(rand.NewSource(rng.Int63()))
			if w.state {
				gens = append(gens, newStateSlot(ks, c, r))
			} else {
				gens = append(gens, newEchoSlot(r))
			}
		}
	}
	churnRng := rand.New(rand.NewSource(rng.Int63()))
	probeSeed := rng.Int63()

	// A traced run splits the time between an untraced and a traced
	// window; each window is a whole number of sub-windows.
	winNs := int64(seconds * 1e9)
	if traced {
		winNs /= 2
	}
	subLen := min(subWindow, winNs)
	nSubs := int(winNs / subLen)

	var logs [nWindows]*sampleLog
	logs[0] = newSampleLog(float64(winNs) / 1e9)
	if traced {
		logs[1] = newSampleLog(float64(winNs) / 1e9)
	}
	base := st.cls.allMembers()
	l := startLoad(st.stub, tr, chk, &ids, gens, logs)
	time.Sleep(warmup)

	adv0, stale0 := st.stub.RouteAdvances(), st.stub.StaleRetries()
	var (
		churnRecs  []resizeRec
		churnFinal int
		churnErr   error
		stopChurn  = make(chan struct{})
		churnDone  = make(chan struct{})
	)
	p0 := sampleProc()
	l.enter(phaseA)
	if w.churn {
		go func() {
			defer close(churnDone)
			churnRecs, churnFinal, churnErr = st.churn(churnRng, w.maxPool, stopChurn)
		}()
	}
	marksA := runSubWindows(l.at[phaseA], nSubs, subLen)
	p1 := sampleProc()
	var ss0, ss1 kvstore.ClusterSessionStats
	var marksB []mark
	if traced {
		ss0 = sessionStats(base)
		tr.on.Store(true)
		l.enter(phaseB)
		marksB = runSubWindows(l.at[phaseB], nSubs, subLen)
		tr.on.Store(false)
		ss1 = sessionStats(base)
	}
	l.enter(phaseCool)
	if w.churn {
		close(stopChurn)
		<-churnDone
		time.Sleep(coolDown) // the last member added gets to serve
	}
	l.stop()
	loadRetries := st.stub.StaleRetries() // since deployment, preload included
	winA := l.window(0, subLen, marksA)
	winB := l.window(1, subLen, marksB)
	if winA.overflow || winB.overflow {
		return nil, fmt.Errorf("more than %d invocations per second: raise maxRate", maxRate)
	}
	rep.attempted, rep.failed = l.totals()
	loadFailed := rep.failed

	// Provisioning and drain. The churn workload resized under its own
	// load; the others run the resize probe now, under light load.
	recs := churnRecs
	expectSize := churnFinal
	keep := winA.use
	if w.churn {
		if churnErr != nil {
			return nil, churnErr
		}
		for i, r := range recs {
			recs[i].interval = int((r.start - l.at[phaseA]) / subLen)
		}
	} else {
		adv0, stale0 = st.stub.RouteAdvances(), st.stub.StaleRetries()
		var nops []slotGen
		for range probeSlots {
			nops = append(nops, &nopSlot{})
		}
		pl := startLoad(st.stub, tr, chk, &ids, nops, [nWindows]*sampleLog{})
		var steal []int64
		recs, steal, err = st.resizeProbe(probeCycles, probePeriod)
		pl.stop()
		if err != nil {
			return nil, err
		}
		keep = quietest(steal)
		issued, failed := pl.totals()
		rep.attempted += issued
		rep.failed += failed
		expectSize = 2
	}
	adv1, stale1 := st.stub.RouteAdvances(), st.stub.StaleRetries()
	rs := st.resizeStats(recs, keep)

	// Output checks beyond the per-reply ones made during the load.
	for _, uid := range rs.unserved {
		chk.fail("member %d was added but served no call", uid)
	}
	if got := st.pool.Size(); got != expectSize {
		chk.fail("pool has %d members, the resize schedule ends at %d", got, expectSize)
	}
	if w.state {
		// The ordering checks hold only if every invocation ran exactly
		// once: the stub retried none and none failed, preload included.
		exactlyOnce := loadRetries == 0 && loadFailed == 0 && st.preloadFailed.Load() == 0
		stale := chk.resolveOrdering(exactlyOnce)
		rep.note("exactly-once=%t (stub retries %d, failed %d, preload failures %d); reads older than the reader's acknowledged write: %d",
			exactlyOnce, loadRetries, loadFailed, st.preloadFailed.Load(), stale)
		// Read the store directly, past every member's session cache.
		final := core.NewState(poolName, "check", st.store, nil)
		ks.checkFinal(func(k int) ([]byte, error) {
			return final.GetBytes(st.cls.fields[k])
		}, func(j int) (int64, error) {
			return final.GetInt(st.cls.ctrFields[j])
		}, exactlyOnce, chk)
	}
	rep.correct = chk.ok()
	rep.note("checks: correct=%t violations=%d attempted=%d failed=%d", rep.correct, chk.violations, rep.attempted, rep.failed)
	for _, m := range chk.msgs {
		rep.note("violation: %s", m)
	}
	for e, n := range chk.errs {
		rep.note("invocation error x%d: %s", n, e)
	}

	nResize := len(recs)
	if traced {
		err = addLayerMetrics(rep, w, tr, winA, winB, p0, p1, ss0, ss1, rs, nResize, adv1-adv0, stale1-stale0, runDir, scratch, probeSeed)
		return rep, err
	}

	nA := winA.n
	subs := fmt.Sprintf("medians of the %d of %d sub-windows of %.1fs with least host steal, n=%d", len(winA.used()), nSubs, float64(subLen)/1e9, nA)
	med := winA.median
	// Timings are printed but not bounded. On a 2-vCPU virtual machine that
	// shares its host they follow how much CPU, and how fast a CPU, the host
	// leaves it: between runs of the same code they moved by up to 30%, CPU
	// time per invocation included and in the quietest sub-windows too, more
	// than any bound may allow.
	rep.note("ops_s=%.1f lat_p50_us=%.2f lat_p90_us=%.2f lat_p99_us=%.2f heavy_p50_us=%.2f cpu_us_op=%.3f (%s; per sub-window %g beyond p90, %g beyond p99, %g heavy of class %s; process CPU %.3fs)",
		med(func(s subStats) float64 { return s.ops }),
		med(func(s subStats) float64 { return s.p50 })/1e3,
		med(func(s subStats) float64 { return s.p90 })/1e3,
		med(func(s subStats) float64 { return s.p99 })/1e3,
		med(func(s subStats) float64 { return s.heavyP50 })/1e3,
		med(func(s subStats) float64 { return s.cpuPerOp }),
		subs,
		med(func(s subStats) float64 { return float64(s.beyond90) }),
		med(func(s subStats) float64 { return float64(s.beyond99) }),
		med(func(s subStats) float64 { return float64(s.nHeavy) }), heavyClass(w), p1.cpu-p0.cpu)
	rep.note("prov_p50_ms=%.4f (n=%d grows) drain_p50_ms=%.4f (n=%d shrinks), source=%s",
		quantile(sortedCopy(rs.prov), 0.5)/1e6, len(rs.prov), quantile(sortedCopy(rs.shrinks), 0.5)/1e6, len(rs.shrinks), resizeSource(w))
	rep.note("err_frac=%g (base: %d attempted in window, %d failed)", float64(winA.failed)/float64(int64(nA)+winA.failed), int64(nA)+winA.failed, winA.failed)
	rep.add("allocs_op", "allocs/op", float64(p1.mallocs-p0.mallocs)/float64(nA), "n=%d allocs=%d", nA, p1.mallocs-p0.mallocs)
	rep.add("alloc_bytes_op", "B/op", float64(p1.allocB-p0.allocB)/float64(nA), "n=%d bytes=%d", nA, p1.allocB-p0.allocB)
	rep.add("peak_rss_mb", "MB", peakRSSMB()-logsMB(logs), "process peak less the %.1f MB sample buffer", logsMB(logs))
	rep.add("setup_s", "s", quantile(sortedCopy(setups), 0.5)/1e9, "n=%d set-ups", len(setups))
	return rep, nil
}

// logsMB is the resident size of the sample buffers, which are written
// through before the load starts.
func logsMB(logs [nWindows]*sampleLog) float64 {
	var n int
	for _, l := range logs {
		if l != nil {
			n += len(l.buf)
		}
	}
	return float64(n*8) / (1 << 20)
}

func heavyClass(w *workload) string {
	if w.state {
		return "writes"
	}
	return "64KiB-echo"
}

func resizeSource(w *workload) string {
	if w.churn {
		return "churn-schedule-under-load"
	}
	return "resize-probe"
}

// runSubWindows waits out n sub-windows of subLen starting at start and
// returns the readings at their n+1 boundaries.
func runSubWindows(start int64, n int, subLen int64) []mark {
	marks := []mark{takeMark()}
	for k := 1; k <= n; k++ {
		sleepUntil(start + int64(k)*subLen)
		marks = append(marks, takeMark())
	}
	return marks
}
