package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func BenchmarkStorePut(b *testing.B) {
	s := NewStore(nil)
	val := []byte("value-payload-0123456789")
	var rec []byte // the record buffer a server's stripe reuses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("key-%d", i%1024), val, &rec)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(nil)
	for i := 0; i < 1024; i++ {
		s.Put(fmt.Sprintf("key-%d", i), []byte("v"), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("key-%d", i%1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreAddInt64(b *testing.B) {
	s := NewStore(nil)
	var rec []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AddInt64("ctr", 1, &rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientPutOverTCP(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := NewClient(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := []byte("value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put("k", val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterRouting(b *testing.B) {
	cl, err := NewCluster(3, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	val := []byte("v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k-%d", i%4096)
		if _, err := cl.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	s := NewStore(nil)
	var rec []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.TryLock("L", "owner", time.Minute, &rec); err != nil {
			b.Fatal(err)
		}
		if err := s.Unlock("L", "owner", &rec); err != nil {
			b.Fatal(err)
		}
	}
}

// Replication benchmarks: the same 3-node cluster at R=1 (single copy, the
// pre-replication deployment) vs R=2 (every write synchronously forwarded
// to one backup before the ack). The spread is the price of surviving a
// node loss.

func newBenchCluster(b *testing.B, rf int) *Cluster {
	b.Helper()
	cl, err := NewReplicated(3, rf, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	return cl
}

func benchClusterPut(b *testing.B, rf int) {
	cl := newBenchCluster(b, rf)
	val := []byte("value-payload-0123456789")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Put(fmt.Sprintf("k-%d", i%1024), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterR1Put(b *testing.B) { benchClusterPut(b, 1) }
func BenchmarkClusterR2Put(b *testing.B) { benchClusterPut(b, 2) }

func benchClusterGet(b *testing.B, rf int) {
	cl := newBenchCluster(b, rf)
	for i := 0; i < 1024; i++ {
		if _, err := cl.Put(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(fmt.Sprintf("k-%d", i%1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterR1Get(b *testing.B) { benchClusterGet(b, 1) }
func BenchmarkClusterR2Get(b *testing.B) { benchClusterGet(b, 2) }

func benchClusterLock(b *testing.B, rf int) {
	cl := newBenchCluster(b, rf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("L-%d", i%64)
		if err := cl.TryLock(name, "owner", time.Minute); err != nil {
			b.Fatal(err)
		}
		if err := cl.Unlock(name, "owner"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterR1Lock(b *testing.B) { benchClusterLock(b, 1) }
func BenchmarkClusterR2Lock(b *testing.B) { benchClusterLock(b, 2) }

// Durability benchmarks: the same parallel put workload against an
// in-memory store, a WAL paying one fsync per write (the naive
// write-ahead baseline), and a group-committed WAL (one fsync amortized
// across the concurrently admitted batch). The spread between the last
// two is the cost group commit recovers. Parallel on purpose — group
// commit's whole point is concurrent writers sharing a sync.

func benchStorePutDur(b *testing.B, opts DurOptions) {
	s, err := NewStoreDur(nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	val := []byte("value-payload-0123456789")
	var ctr atomic.Uint64
	// Force a real writer pool even on small machines: group commit's
	// batch is exactly the set of concurrently admitted writers, and
	// RunParallel defaults to GOMAXPROCS goroutines (1 on a 1-core box,
	// which would degenerate the comparison to fsync-per-write thrice).
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var rec []byte
		for pb.Next() {
			i := ctr.Add(1)
			s.Put(fmt.Sprintf("key-%d", i%1024), val, &rec)
		}
	})
}

func BenchmarkStorePutNoWAL(b *testing.B) { benchStorePutDur(b, DurOptions{}) }
func BenchmarkStorePutWALSync(b *testing.B) {
	benchStorePutDur(b, DurOptions{Dir: b.TempDir()})
}
func BenchmarkStorePutWALGroup(b *testing.B) {
	benchStorePutDur(b, DurOptions{Dir: b.TempDir(), GroupCommit: true})
}

// BenchmarkClusterFailoverBlip is one fixed-duration experiment (run with
// -benchtime 1x): a single writer streams puts against an R=2 cluster, one
// node is killed mid-stream, and the metrics report the availability blip —
// the longest gap between two consecutive acknowledged writes — plus how
// many operations failed outright (target: none; the router retries
// through the failover).
func BenchmarkClusterFailoverBlip(b *testing.B) {
	for iter := 0; iter < b.N; iter++ {
		cl, err := NewReplicated(3, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		val := []byte("value-payload-0123456789")
		var (
			failed  int
			acked   int
			maxGap  time.Duration
			lastAck = time.Now()
		)
		start := time.Now()
		crashed := false
		for i := 0; time.Since(start) < 1200*time.Millisecond; i++ {
			if !crashed && time.Since(start) > 200*time.Millisecond {
				if err := cl.CrashNode(cl.Addrs()[0]); err != nil {
					b.Fatal(err)
				}
				crashed = true
			}
			if _, err := cl.Put(fmt.Sprintf("k-%d", i%1024), val); err != nil {
				failed++
				continue
			}
			acked++
			now := time.Now()
			if gap := now.Sub(lastAck); gap > maxGap {
				maxGap = gap
			}
			lastAck = now
		}
		cl.Close()
		b.ReportMetric(float64(maxGap.Microseconds())/1000.0, "blip-ms")
		b.ReportMetric(float64(failed), "failed-ops")
		b.ReportMetric(float64(acked), "acked-ops")
	}
}

// Session benchmarks: the lease-cached read path vs the per-call path at
// 16 concurrent clients (the PR-8 figure — a cache hit is a local map
// lookup under a live lease, no network), plus the invalidation storm: one
// writer against a hot key every caching session holds, measuring the
// write's ack latency with invalidate-before-ack on the critical path.

const sessionBenchWorkers = 16

// benchSessionWorkers splits b.N across exactly `workers` goroutines (one
// per simulated client), each running get() over its own 64-key working
// set. RunParallel is avoided on purpose: its worker count tracks
// GOMAXPROCS, which would change the client count across machines.
func benchSessionWorkers(b *testing.B, workers int, get func(worker int, key string) error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				key := fmt.Sprintf("bench/%d/%d", worker, i%64)
				if err := get(worker, key); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
}

func benchSessionSeed(b *testing.B, cli *Client, workers int) {
	b.Helper()
	val := []byte("value-payload-0123456789")
	for w := 0; w < workers; w++ {
		for i := 0; i < 64; i++ {
			if _, err := cli.Put(fmt.Sprintf("bench/%d/%d", w, i), val); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionGetCached: every worker owns a Session; after one cold
// pass its whole working set is cache-resident under the lease.
func BenchmarkSessionGetCached(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	benchSessionSeed(b, cli, sessionBenchWorkers)
	sessions := make([]*Session, sessionBenchWorkers)
	for w := range sessions {
		sess, err := NewSession(srv.Addr(), SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		sessions[w] = sess
		for i := 0; i < 64; i++ { // prime the cache
			if _, err := sess.Get(fmt.Sprintf("bench/%d/%d", w, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchSessionWorkers(b, sessionBenchWorkers, func(w int, key string) error {
		_, err := sessions[w].Get(key)
		return err
	})
}

// BenchmarkSessionGetUncached is the same 16-client workload on the plain
// per-call path: every read is a full round trip.
func BenchmarkSessionGetUncached(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	seedCli, err := NewClient(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer seedCli.Close()
	benchSessionSeed(b, seedCli, sessionBenchWorkers)
	clients := make([]*Client, sessionBenchWorkers)
	for w := range clients {
		cli, err := NewClient(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		clients[w] = cli
	}
	benchSessionWorkers(b, sessionBenchWorkers, func(w int, key string) error {
		_, err := clients[w].Get(key)
		return err
	})
}

// BenchmarkSessionInvalidationStorm: 16 sessions all hold one hot key
// under lease, and a single writer updates it — every Put pushes 16
// invalidations and withholds its ack until all are acknowledged. Each
// reader watches the key and re-leases on the change notification, so the
// next write again finds a full house of interested sessions. Readers are
// event-driven, not spinning: a polling loop would measure scheduler
// starvation on small machines, not invalidation cost. Reported per-op
// time is the storm-write ack latency; p50-us/p99-us give the
// distribution.
func BenchmarkSessionInvalidationStorm(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewClient(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Put("hot", []byte("seed")); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < sessionBenchWorkers; w++ {
		sess, err := NewSession(srv.Addr(), SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer sess.Close()
		ch, cancel, err := sess.Watch("hot")
		if err != nil {
			b.Fatal(err)
		}
		defer cancel()
		if _, err := sess.Get("hot"); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func(sess *Session, ch <-chan string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-ch:
					if _, err := sess.Get("hot"); err != nil {
						return
					}
				}
			}
		}(sess, ch)
	}
	defer func() { close(stop); wg.Wait() }()

	lat := make([]time.Duration, b.N)
	val := []byte("value-payload-0123456789")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := cli.Put("hot", val); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50-us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99-us")
}
