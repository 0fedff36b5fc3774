package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"elasticrmi/internal/kvstore"
)

const (
	transportProbeTime = 300 * time.Millisecond // per payload class
	walProbeTime       = 500 * time.Millisecond
	storeProbeTime     = 500 * time.Millisecond
)

// addLayerMetrics reports the traced run's per-layer metrics. Spans come
// from window B; GC share from untraced window A; layers the workload does
// not drive are timed by direct probes.
func addLayerMetrics(rep *report, w *workload, tr *tracer, winA, winB window,
	p0, p1 procSample, ss0, ss1 kvstore.ClusterSessionStats, rs resizeStats,
	nResize int, advances, staleRetries uint64, runDir, scratch string, seed int64) error {

	spans := tr.all()
	ss := summarize(spans)
	if err := os.MkdirAll(filepath.Join(scratch, "spans"), 0o755); err != nil {
		return err
	}
	spanFile := filepath.Join(scratch, "spans", w.name+".tsv")
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(spans), spanFile)

	nInv, nHandler := len(ss.dur[spanInvoke]), len(ss.dur[spanHandler])
	rep.add("core.invoke_us", "us", mean(ss.dur[spanInvoke])/1e3, "mean n=%d", nInv)
	rep.add("app.handler_us", "us", mean(ss.dur[spanHandler])/1e3, "mean n=%d", nHandler)
	rep.add("core.overhead_us", "us", mean(ss.self[spanInvoke])/1e3, "mean self time of core.invoke n=%d", nInv)

	rng := rand.New(rand.NewSource(seed))
	lat64, allocs, err := transportProbe(smallEcho, transportProbeTime, rng)
	if err != nil {
		return err
	}
	lat64k, _, err := transportProbe(bigEcho, transportProbeTime, rng)
	if err != nil {
		return err
	}
	rep.add("transport.call64_us", "us", mean(lat64)/1e3, "mean n=%d bare server", len(lat64))
	rep.add("transport.call64k_us", "us", mean(lat64k)/1e3, "mean n=%d bare server", len(lat64k))
	rep.add("transport.allocs_call", "allocs/call", allocs, "base: %d 64B calls", len(lat64))

	// Store calls: the workload's own spans when its class uses the store,
	// otherwise the store probe.
	nStore := len(ss.dur[spanPut]) + len(ss.dur[spanGet]) + len(ss.dur[spanAdd])
	put, get, add := ss.dur[spanPut], ss.dur[spanGet], ss.dur[spanAdd]
	source := "handler-spans"
	var probe storeSample
	if !w.state {
		if probe, err = storeProbe(storeProbeTime, rng.Int63()); err != nil {
			return err
		}
		put, get, add, source = probe.put, probe.get, probe.add, "store-probe"
	}
	rep.add("kvstore.put_us", "us", mean(put)/1e3, "mean n=%d source=%s", len(put), source)
	rep.add("kvstore.get_us", "us", mean(get)/1e3, "mean n=%d source=%s", len(get), source)
	rep.add("kvstore.add_us", "us", mean(add)/1e3, "mean n=%d source=%s", len(add), source)
	rep.add("kvstore.calls_op", "calls/op", float64(nStore)/float64(nHandler), "base: %d handler spans", nHandler)

	walLat, err := walProbe(filepath.Join(runDir, "wal-probe"), walProbeTime)
	if err != nil {
		return err
	}
	rep.add("wal.commit_us", "us", mean(walLat)/1e3, "mean n=%d two writers, group commit", len(walLat))

	// Session cache: the members' sessions over window B on state-read,
	// otherwise the store probe's session.
	hits, misses, inval := ss1.Hits-ss0.Hits, ss1.Misses-ss0.Misses, ss1.Invalidations-ss0.Invalidations
	writes := len(ss.dur[spanPut]) + len(ss.dur[spanAdd])
	source = "member-sessions"
	if !w.state {
		hits, misses, inval = probe.st.Hits, probe.st.Misses, probe.st.Invalidations
		writes = len(probe.put) + len(probe.add)
		source = "store-probe"
	}
	rep.add("kvstore.hit_frac", "frac", float64(hits)/float64(hits+misses), "base: %d lookups source=%s", hits+misses, source)
	rep.add("kvstore.inval_per_write", "1/write", float64(inval)/float64(writes), "base: %d writes, %d invalidations source=%s", writes, inval, source)

	rep.add("core.grow_ms", "ms", mean(rs.grows)/1e6, "mean n=%d source=%s", len(rs.grows), resizeSource(w))
	rep.add("core.first_serve_ms", "ms", mean(rs.firstServe)/1e6, "mean n=%d after Resize(+1) returns", len(rs.firstServe))
	rep.add("core.shrink_ms", "ms", mean(rs.shrinks)/1e6, "mean n=%d", len(rs.shrinks))
	rep.add("route.advances_per_resize", "1/resize", float64(advances)/float64(nResize), "base: %d resizes", nResize)
	rep.add("route.stale_retries_per_resize", "1/resize", float64(staleRetries)/float64(nResize), "base: %d resizes", nResize)

	rep.add("runtime.gc_cpu_frac", "frac", (p1.gcCPU-p0.gcCPU)/(p1.cpu-p0.cpu), "base: %.3f CPU-s in untraced window", p1.cpu-p0.cpu)
	opsA := winA.median(func(s subStats) float64 { return s.ops })
	opsB := winB.median(func(s subStats) float64 { return s.ops })
	rep.add("trace.ops_ratio", "ratio", opsB/opsA, "traced %.1f ops/s over untraced %.1f ops/s", opsB, opsA)
	rep.note("tracing overhead: %.2f%% fewer ops/s traced", 100*(1-opsB/opsA))
	if nStore == 0 && w.state {
		return fmt.Errorf("traced window recorded no store spans")
	}
	return nil
}
