package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/transport"
	"elasticrmi/internal/wal"
)

// Layer probes time one layer's public functions directly, with nothing
// above them, for the traced run.

// transportProbe echoes size-byte payloads through transport.Client.Call
// against a bare transport server, one call at a time, for d. It returns
// per-call latencies and heap allocations per call (both sides).
func transportProbe(size int, d time.Duration, rng *rand.Rand) (lat []int64, allocsPerCall float64, err error) {
	srv, err := transport.Serve("127.0.0.1:0", func(req *transport.Request) ([]byte, error) {
		return req.Payload, nil
	})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr())
	if err != nil {
		return nil, 0, err
	}
	defer cli.Close()
	payload := make([]byte, size)
	rng.Read(payload)
	call := func() error {
		out, err := cli.Call("probe", "echo", payload, 5*time.Second)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, payload) {
			return fmt.Errorf("transport probe: reply differs from request")
		}
		transport.ReleasePayload(out)
		return nil
	}
	for range 200 { // warm connections and the payload arena
		if err := call(); err != nil {
			return nil, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := now() + int64(d)
	for now() < deadline {
		t0 := now()
		if err := call(); err != nil {
			return nil, 0, err
		}
		lat = append(lat, now()-t0)
	}
	runtime.ReadMemStats(&ms1)
	return lat, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(lat)), nil
}

// walProbe appends and group-commits 256-byte records from two goroutines
// for d, in a fresh log under dir. It returns Append+Commit latencies.
func walProbe(dir string, d time.Duration) ([]int64, error) {
	log, err := wal.Open(dir, wal.Options{GroupCommit: true})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var (
		mu   sync.Mutex
		lat  []int64
		errs = make([]error, 2)
		wg   sync.WaitGroup
	)
	deadline := now() + int64(d)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := bytes.Repeat([]byte{byte('a' + g)}, valueSize)
			var mine []int64
			for now() < deadline {
				t0 := now()
				lsn, err := log.Append(rec)
				if err == nil {
					err = log.Commit(lsn)
				}
				if err != nil {
					errs[g] = err
					break
				}
				mine = append(mine, now()-t0)
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}

// storeSample is what the store probe measured.
type storeSample struct {
	put, get, add []int64
	st            kvstore.ClusterSessionStats
}

// storeProbe deploys a store cluster like the stateful workload's and
// drives core.State over a kvstore.ClusterSession on it from two
// goroutines for d: 70% gets, 25% puts, 5% adds on Zipf keys among 1024
// fields of its own class. It times each State call and
// returns the session's counters.
func storeProbe(d time.Duration, seed int64) (storeSample, error) {
	store, err := kvstore.NewReplicated(3, 2, nil)
	if err != nil {
		return storeSample{}, err
	}
	defer store.Close()
	sess := store.NewSession(kvstore.SessionOptions{})
	defer sess.Close()
	st := core.NewState("probe", "probe/0", sess, nil)
	var (
		mu   sync.Mutex
		out  storeSample
		errs = make([]error, 2)
		wg   sync.WaitGroup
	)
	deadline := now() + int64(d)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			z := rand.NewZipf(rng, zipfS, zipfV, 1023)
			val := make([]byte, valueSize)
			rng.Read(val)
			var put, get, add []int64
			for now() < deadline && errs[g] == nil {
				field := fmt.Sprintf("f%04d", z.Uint64())
				r := rng.Float64()
				t0 := now()
				switch {
				case r < 0.70:
					_, errs[g] = st.GetBytes(field)
					get = append(get, now()-t0)
				case r < 0.95:
					errs[g] = st.PutBytes(field, val)
					put = append(put, now()-t0)
				default:
					_, errs[g] = st.AddInt("n"+field, 1)
					add = append(add, now()-t0)
				}
			}
			mu.Lock()
			out.put = append(out.put, put...)
			out.get = append(out.get, get...)
			out.add = append(out.add, add...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, fmt.Errorf("store probe: %w", err)
		}
	}
	out.st = sess.Stats()
	return out, nil
}
