package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"elasticrmi/internal/apps/cache"
	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/workload"
)

func demo(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	duration := fs.Duration("duration", 20*time.Second, "demo duration")
	peakRPS := fs.Float64("rps", 400, "peak request rate against the cache pool")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fmt.Fprintln(out, "=== ElasticRMI live demo: elastic distributed cache ===")

	// Substrates: a 16-slice cluster, a 2-node store, a registry.
	mgr, err := cluster.New(cluster.Config{Nodes: 16, SlicesPerNode: 1})
	if err != nil {
		return err
	}
	defer mgr.Close()
	store, err := kvstore.NewCluster(2, nil)
	if err != nil {
		return err
	}
	defer store.Close()
	regSrv, err := core.NewRegistryServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer regSrv.Close()
	regCli, err := core.DialRegistry(regSrv.Addr())
	if err != nil {
		return err
	}
	defer regCli.Close()

	// The elastic cache pool: fine-grained scaling per Fig. 5, with a short
	// burst interval so the demo reacts within seconds.
	pool, err := core.NewPool(core.Config{
		Name:          "demo-cache",
		MinPoolSize:   2,
		MaxPoolSize:   10,
		BurstInterval: 2 * time.Second,
		SliceCPUs:     1,
	}, cache.New(cache.Config{
		Mode:            cache.ExplicitFine,
		PutLatencyBound: 3 * time.Millisecond,
	}), core.Deps{Cluster: mgr, Store: store, Registry: regCli})
	if err != nil {
		return err
	}
	defer pool.Close()
	fmt.Fprintf(out, "pool %q instantiated: %d members, policy=%s, sentinel=%s\n",
		"demo-cache", pool.Size(), pool.Policy(), pool.SentinelAddr())

	stub, err := core.LookupStub("demo-cache", regCli)
	if err != nil {
		return err
	}
	defer stub.Close()

	// Replay a compressed abrupt pattern: the full 450 minutes squeezed
	// into the demo duration.
	gen := &workload.Generator{
		Pattern:     workload.Abrupt(*peakRPS),
		Speedup:     float64(450*time.Minute) / float64(*duration),
		RateScale:   1,
		MaxInFlight: 128,
	}
	ctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	// Progress reporter, joined before the summary so the two never
	// interleave on out.
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				virtual := time.Duration(float64(time.Since(start)) * gen.Speedup)
				fmt.Fprintf(out, "t=%3ds  virtual=%4dm  offered=%6.0f req/s  pool=%2d members  cluster=%2d/%2d slices\n",
					int(time.Since(start).Seconds()), int(virtual.Minutes()),
					gen.Pattern.Rate(virtual), pool.Size(), mgr.InUse(), mgr.Total())
			}
		}
	}()

	var seq atomic.Int64
	issued, failed := gen.Run(ctx, func() error {
		n := seq.Add(1)
		key := "item-" + strconv.FormatInt(n%64, 10)
		if n%4 == 0 {
			_, err := core.Call[cache.PutArgs, cache.PutReply](stub, cache.MethodPut,
				cache.PutArgs{Key: key, Value: []byte("v")})
			return err
		}
		_, err := core.Call[cache.GetArgs, cache.GetReply](stub, cache.MethodGet, cache.GetArgs{Key: key})
		return err
	})
	cancel()
	<-reported

	fmt.Fprintf(out, "\ndone: issued=%d failed=%d final pool=%d members\n", issued, failed, pool.Size())
	for {
		select {
		case ev := <-pool.Events():
			fmt.Fprintf(out, "  scale event: %d -> %d (%s, provisioning %v)\n", ev.From, ev.To, ev.Policy, ev.ProvisioningLatency)
		default:
			return nil
		}
	}
}
