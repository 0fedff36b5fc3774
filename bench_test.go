// Benchmarks regenerating the paper's evaluation, one per table/figure, plus
// live-runtime microbenchmarks. The figure benches report the quantities the
// paper plots as custom benchmark metrics:
//
//	avg_agility       mean SPEC agility over the run
//	zero_frac         fraction of samples with zero agility
//	max_prov_latency  worst provisioning interval (seconds)
//
// Run with:
//
//	go test -bench=. -benchmem .
package elasticrmi_test

import (
	"fmt"
	"testing"
	"time"

	"elasticrmi/internal/apps/cache"
	"elasticrmi/internal/benchsim"
	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/transport"
	"elasticrmi/internal/workload"
)

// benchFigure runs one Fig. 7 experiment per iteration and reports the
// headline metrics for the ElasticRMI deployment plus the baseline ratios.
func benchFigure(b *testing.B, app benchsim.AppModel, pattern workload.Pattern) {
	b.Helper()
	var ex benchsim.Experiment
	for i := 0; i < b.N; i++ {
		ex = benchsim.RunExperiment(app, pattern)
	}
	ermi := ex.Results[benchsim.DeployElasticRMI]
	b.ReportMetric(ermi.AvgAgility(), "avg_agility")
	b.ReportMetric(ermi.ZeroFraction(), "zero_frac")
	b.ReportMetric(ermi.MaxProvisioningLatency().Seconds(), "max_prov_s")
	b.ReportMetric(ex.RatioVsElasticRMI(benchsim.DeployCloudWatch), "cloudwatch_x")
	b.ReportMetric(ex.RatioVsElasticRMI(benchsim.DeployOverprovision), "overprov_x")
}

// Figures 7a/7b: the workload patterns themselves.

func BenchmarkFig7aAbruptPattern(b *testing.B) {
	p := workload.Abrupt(50000)
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, v := range workload.Sample(p, time.Minute) {
			sink += v
		}
	}
	_ = sink
	b.ReportMetric(p.Peak(), "point_A")
}

func BenchmarkFig7bCyclicPattern(b *testing.B) {
	p := workload.Cyclic(60000)
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, v := range workload.Sample(p, time.Minute) {
			sink += v
		}
	}
	_ = sink
	b.ReportMetric(p.Peak(), "point_B")
}

// Figures 7c-7j: agility per application and workload.

func BenchmarkFig7cMarketceteraAbrupt(b *testing.B) {
	app := benchsim.MarketceteraModel()
	benchFigure(b, app, workload.Abrupt(app.PeakA))
}

func BenchmarkFig7dMarketceteraCyclic(b *testing.B) {
	app := benchsim.MarketceteraModel()
	benchFigure(b, app, workload.Cyclic(app.PeakB()))
}

func BenchmarkFig7eHedwigAbrupt(b *testing.B) {
	app := benchsim.HedwigModel()
	benchFigure(b, app, workload.Abrupt(app.PeakA))
}

func BenchmarkFig7fHedwigCyclic(b *testing.B) {
	app := benchsim.HedwigModel()
	benchFigure(b, app, workload.Cyclic(app.PeakB()))
}

func BenchmarkFig7gPaxosAbrupt(b *testing.B) {
	app := benchsim.PaxosModel()
	benchFigure(b, app, workload.Abrupt(app.PeakA))
}

func BenchmarkFig7hPaxosCyclic(b *testing.B) {
	app := benchsim.PaxosModel()
	benchFigure(b, app, workload.Cyclic(app.PeakB()))
}

func BenchmarkFig7iDCSAbrupt(b *testing.B) {
	app := benchsim.DCSModel()
	benchFigure(b, app, workload.Abrupt(app.PeakA))
}

func BenchmarkFig7jDCSCyclic(b *testing.B) {
	app := benchsim.DCSModel()
	benchFigure(b, app, workload.Cyclic(app.PeakB()))
}

// Figures 8a/8b: provisioning latency across the four applications.

func benchProvisioning(b *testing.B, pat func(benchsim.AppModel) workload.Pattern) {
	b.Helper()
	var worst, mean float64
	for i := 0; i < b.N; i++ {
		worst, mean = 0, 0
		events := 0
		for _, app := range benchsim.Models() {
			res := benchsim.Run(benchsim.RunConfig{
				App: app, Pattern: pat(app), Deploy: benchsim.DeployElasticRMI,
			})
			for _, ev := range res.Provisioning {
				if s := ev.Latency.Seconds(); s > worst {
					worst = s
				}
				mean += ev.Latency.Seconds()
				events++
			}
		}
		if events > 0 {
			mean /= float64(events)
		}
	}
	b.ReportMetric(worst, "max_prov_s")
	b.ReportMetric(mean, "mean_prov_s")
}

func BenchmarkFig8aProvisioningAbrupt(b *testing.B) {
	benchProvisioning(b, func(app benchsim.AppModel) workload.Pattern {
		return workload.Abrupt(app.PeakA)
	})
}

func BenchmarkFig8bProvisioningCyclic(b *testing.B) {
	benchProvisioning(b, func(app benchsim.AppModel) workload.Pattern {
		return workload.Cyclic(app.PeakB())
	})
}

// Section 5.5 summary ratios across all eight experiments.
func BenchmarkSummaryAgilityRatios(b *testing.B) {
	var minRatio, maxRatio float64
	for i := 0; i < b.N; i++ {
		minRatio, maxRatio = 1e18, 0
		for _, app := range benchsim.Models() {
			for _, p := range []workload.Pattern{workload.Abrupt(app.PeakA), workload.Cyclic(app.PeakB())} {
				ex := benchsim.RunExperiment(app, p)
				r := ex.RatioVsElasticRMI(benchsim.DeployCloudWatch)
				if r < minRatio {
					minRatio = r
				}
				if r > maxRatio {
					maxRatio = r
				}
			}
		}
	}
	b.ReportMetric(minRatio, "min_cloudwatch_x")
	b.ReportMetric(maxRatio, "max_cloudwatch_x")
}

// Ablation benchmarks: quantify the design choices DESIGN.md calls out by
// sweeping one knob at a time on the Marketcetera/abrupt experiment.

// BenchmarkAblationCommonModeError compares ElasticRMI with noisy vs
// perfect application metrics.
func BenchmarkAblationCommonModeError(b *testing.B) {
	app := benchsim.MarketceteraModel()
	var noisy, ideal float64
	for i := 0; i < b.N; i++ {
		noisy = benchsim.Run(benchsim.RunConfig{
			App: app, Pattern: workload.Abrupt(app.PeakA), Deploy: benchsim.DeployElasticRMI,
		}).AvgAgility()
		ideal = benchsim.Run(benchsim.RunConfig{
			App: app, Pattern: workload.Abrupt(app.PeakA), Deploy: benchsim.DeployElasticRMI,
			DisableCommonModeError: true,
		}).AvgAgility()
	}
	b.ReportMetric(noisy, "agility_noisy")
	b.ReportMetric(ideal, "agility_perfect")
}

// BenchmarkAblationFineDeltaCap sweeps the per-member ChangePoolSize bound.
func BenchmarkAblationFineDeltaCap(b *testing.B) {
	app := benchsim.MarketceteraModel()
	caps := map[string]int{"cap1": 1, "cap2": 2, "cap4": 4, "unbounded": -1}
	results := make(map[string]float64, len(caps))
	for i := 0; i < b.N; i++ {
		for name, c := range caps {
			results[name] = benchsim.Run(benchsim.RunConfig{
				App: app, Pattern: workload.Abrupt(app.PeakA), Deploy: benchsim.DeployElasticRMI,
				FineDeltaCap: c,
			}).AvgAgility()
		}
	}
	for name, v := range results {
		b.ReportMetric(v, "agility_"+name)
	}
}

// BenchmarkAblationCloudWatchLatency sweeps the VM provisioning latency.
func BenchmarkAblationCloudWatchLatency(b *testing.B) {
	app := benchsim.MarketceteraModel()
	scales := map[string]float64{"container": 0.01, "vm": 1, "slow_vm": 3}
	results := make(map[string]float64, len(scales))
	for i := 0; i < b.N; i++ {
		for name, s := range scales {
			results[name] = benchsim.Run(benchsim.RunConfig{
				App: app, Pattern: workload.Abrupt(app.PeakA), Deploy: benchsim.DeployCloudWatch,
				CloudWatchLatencyScale: s,
			}).AvgAgility()
		}
	}
	for name, v := range results {
		b.ReportMetric(v, "agility_"+name)
	}
}

// Live-runtime microbenchmarks: a real pool over loopback TCP.

type liveEnv struct {
	mgr    *cluster.Manager
	store  *kvstore.Cluster
	reg    *core.RegistryServer
	regCli *core.RegistryClient
	pool   *core.Pool
	stub   *core.Stub
}

func startLive(b *testing.B, minPool, maxPool int) *liveEnv {
	b.Helper()
	mgr, err := cluster.New(cluster.Config{Nodes: 16, SlicesPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	store, err := kvstore.NewCluster(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := core.NewRegistryServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	regCli, err := core.DialRegistry(reg.Addr())
	if err != nil {
		b.Fatal(err)
	}
	pool, err := core.NewPool(core.Config{
		Name: "bench-cache", MinPoolSize: minPool, MaxPoolSize: maxPool,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, cache.New(cache.Config{Mode: cache.ExplicitFine}), core.Deps{
		Cluster: mgr, Store: store, Registry: regCli,
	})
	if err != nil {
		b.Fatal(err)
	}
	stub, err := core.LookupStub("bench-cache", regCli)
	if err != nil {
		b.Fatal(err)
	}
	env := &liveEnv{mgr: mgr, store: store, reg: reg, regCli: regCli, pool: pool, stub: stub}
	b.Cleanup(func() {
		stub.Close()
		pool.Close()
		regCli.Close()
		reg.Close()
		store.Close()
		mgr.Close()
	})
	return env
}

// BenchmarkInvokeGet measures a full remote method invocation through the
// elastic pool: stub -> skeleton -> shared state -> back.
func BenchmarkInvokeGet(b *testing.B) {
	env := startLive(b, 2, 2)
	if _, err := core.Call[cache.PutArgs, cache.PutReply](env.stub, cache.MethodPut,
		cache.PutArgs{Key: "k", Value: []byte("v")}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Call[cache.GetArgs, cache.GetReply](env.stub, cache.MethodGet,
			cache.GetArgs{Key: "k"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokePut includes the per-key write lock.
func BenchmarkInvokePut(b *testing.B) {
	env := startLive(b, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%128)
		if _, err := core.Call[cache.PutArgs, cache.PutReply](env.stub, cache.MethodPut,
			cache.PutArgs{Key: key, Value: []byte("v")}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeParallel measures throughput with client-side load
// balancing over a four-member pool.
func BenchmarkInvokeParallel(b *testing.B) {
	env := startLive(b, 4, 4)
	if _, err := core.Call[cache.PutArgs, cache.PutReply](env.stub, cache.MethodPut,
		cache.PutArgs{Key: "k", Value: []byte("v")}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.Call[cache.GetArgs, cache.GetReply](env.stub, cache.MethodGet,
				cache.GetArgs{Key: "k"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInvokeAsyncPipelined measures the asynchronous invocation
// pipeline end to end through the elastic pool: a stub keeps a window of
// 64 InvokeAsync futures in flight against the same workload
// BenchmarkInvokeGet drives one call at a time.
func BenchmarkInvokeAsyncPipelined(b *testing.B) {
	env := startLive(b, 2, 2)
	stub, err := core.LookupStub("bench-cache", env.regCli)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { stub.Close() })
	// Spread over keys: a single hot key serializes on the store's per-key
	// coherence, which would mask the pipeline.
	const window, keys = 64, 128
	for i := 0; i < keys; i++ {
		if _, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
			cache.PutArgs{Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	futures := make([]*core.AsyncCall, 0, window)
	for done := 0; done < b.N; {
		n := window
		if rem := b.N - done; n > rem {
			n = rem
		}
		futures = futures[:0]
		for j := 0; j < n; j++ {
			futures = append(futures, stub.InvokeAsync(cache.MethodGet,
				transport.Encode(&cache.GetArgs{Key: fmt.Sprintf("k%d", (done+j)%keys)})))
		}
		for _, f := range futures {
			if err := f.Decode(&cache.GetReply{}); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}

// BenchmarkScaleUp measures the live provisioning interval: request a slice,
// launch a member, first request served.
func BenchmarkScaleUp(b *testing.B) {
	env := startLive(b, 2, 64)
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := env.pool.Resize(1); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		b.StopTimer()
		// The bench cluster has 16 slices; recycle before exhausting it.
		if env.pool.Size() >= 12 {
			if err := env.pool.Resize(-(env.pool.Size() - 2)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	if b.N > 0 {
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/member")
	}
}
