package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

const poolName = "bench"

// stack is one deployment of the system under test in this process: a
// cluster manager handing out slices, a replicated kvstore cluster, an
// elastic pool of the benchmark's class and a client stub.
type stack struct {
	mgr   *cluster.Manager
	store *kvstore.Cluster
	cls   *class
	pool  *core.Pool
	stub  *core.Stub
	// preloadFailed counts preload attempts that failed and were retried.
	preloadFailed atomic.Int64
}

// deploy brings the stack up. The store has 3 nodes and replication
// factor 2 and is kept in memory: on a virtual disk shared with other
// machines, a WAL makes every write, and through the blocked lanes the
// whole load, follow fsync latency that drifts about 2x from run to run.
// The WAL is timed on its own by the traced run's probe.
func deploy(w *workload, tr *tracer) (*stack, error) {
	s := &stack{}
	var err error
	if s.mgr, err = cluster.New(cluster.Config{Nodes: w.maxPool + 1, SlicesPerNode: 1}); err != nil {
		return nil, err
	}
	if s.store, err = kvstore.NewReplicated(3, 2, nil); err != nil {
		s.close()
		return nil, err
	}
	s.cls = newClass(tr, s.store, w.state)
	s.pool, err = core.NewPool(core.Config{
		Name:        poolName,
		MinPoolSize: 2,
		MaxPoolSize: w.maxPool,
		// The benchmark resizes the pool itself; the policy never fires.
		BurstInterval: time.Hour,
	}, s.cls.factory, core.Deps{Cluster: s.mgr, Store: s.store})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.stub, err = core.NewStub(poolName, s.pool.Endpoints()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.stub != nil {
		_ = s.stub.Close() // only releases connections
	}
	if s.pool != nil {
		_ = s.pool.Close() // teardown of a finished run
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.mgr != nil {
		s.mgr.Close()
	}
}

// preload writes seq 0 of every key through the stub with inflight
// invocations in flight, as many as the measured load keeps.
func (s *stack) preload(ks *keyspace, ids *atomic.Uint64, inflight int) error {
	var next atomic.Int64
	errs := make(chan error, inflight) // one send per worker
	var wg sync.WaitGroup
	for range inflight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, argOff+valueSize)
			for {
				k := int(next.Add(1) - 1)
				if k >= ks.nKeys {
					errs <- nil
					return
				}
				c, _ := ks.owner(k)
				binary.LittleEndian.PutUint64(buf, ids.Add(1))
				binary.LittleEndian.PutUint32(buf[keyOff:], uint32(k))
				encodeValue(buf[argOff:], k, c, 0)
				var err error
				for range 3 {
					ac := s.stub.InvokeAsync("put", buf)
					<-ac.Done()
					if err = ac.Err(); err == nil {
						break
					}
					s.preloadFailed.Add(1)
					buf = append([]byte(nil), buf...)
				}
				if err != nil {
					errs <- fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// resizeRec is one Pool.Resize step: when it started and returned, for a
// grow the member it added, and the index of the equal-length interval it
// started in (sub-window or probe cycle), by which steps are selected.
type resizeRec struct {
	delta      int
	uid        int64
	start, end int64
	interval   int
}

// resize runs one Pool.Resize step and records it.
func (s *stack) resize(delta int) (resizeRec, error) {
	r := resizeRec{delta: delta, start: now()}
	err := s.pool.Resize(delta)
	r.end = now()
	if delta > 0 {
		r.uid = s.cls.lastUID.Load()
	}
	return r, err
}

// churn resizes the pool along the schedule 2→peak→2, repeated, one step
// per seeded interval, until stop closes. It returns every step taken and
// the pool size the schedule ends at.
func (s *stack) churn(rng *rand.Rand, peak int, stop <-chan struct{}) ([]resizeRec, int, error) {
	var recs []resizeRec
	size, dir := 2, +1
	for {
		select {
		case <-stop:
			return recs, size, nil
		case <-time.After(churnStepMin + time.Duration(rng.Int63n(int64(churnStepMax-churnStepMin)))):
		}
		if size == peak {
			dir = -1
		} else if size == 2 {
			dir = +1
		}
		r, err := s.resize(dir)
		if err != nil {
			return recs, size, fmt.Errorf("resize %+d at size %d: %w", dir, size, err)
		}
		recs = append(recs, r)
		size += dir
	}
}

// resizeProbe grows the pool by one, waits for the new member's first
// call, and shrinks it again, one cycle per period, cycles times, under
// whatever load runs. It returns the steps, each numbered by its cycle,
// and the host steal during each cycle. The period spreads the cycles over
// a few seconds, so that host interference touches a similar share of them
// in every run.
func (s *stack) resizeProbe(cycles int, period time.Duration) ([]resizeRec, []int64, error) {
	var recs []resizeRec
	start := now()
	marks := make([]int64, 0, cycles+1)
	for k := range cycles {
		sleepUntil(start + int64(k)*int64(period))
		marks = append(marks, hostSteal())
		g, err := s.resize(+1)
		if err != nil {
			return recs, nil, fmt.Errorf("probe grow: %w", err)
		}
		g.interval = k
		recs = append(recs, g)
		if o := s.cls.member(g.uid); o != nil {
			select {
			case <-o.served:
			case <-time.After(2 * time.Second):
			}
		}
		r, err := s.resize(-1)
		if err != nil {
			return recs, nil, fmt.Errorf("probe shrink: %w", err)
		}
		r.interval = k
		recs = append(recs, r)
	}
	sleepUntil(start + int64(cycles)*int64(period))
	marks = append(marks, hostSteal())
	steal := make([]int64, cycles)
	for k := range steal {
		steal[k] = stealBetween(marks[k], marks[k+1])
	}
	return recs, steal, nil
}

// resizeStats derives provisioning and drain figures from the resize
// steps that started in a kept interval: prov is Resize(+1) start → the
// new member's first served call, drain the duration of Resize(-1).
// unserved lists every member added, kept or not, that served no call.
type resizeStats struct {
	grows, shrinks, firstServe, prov []int64
	unserved                         []int64
}

func (s *stack) resizeStats(recs []resizeRec, keep []bool) resizeStats {
	var st resizeStats
	for _, r := range recs {
		var o *object
		if r.delta > 0 {
			if o = s.cls.member(r.uid); o == nil || o.first.Load() == 0 {
				st.unserved = append(st.unserved, r.uid)
				continue
			}
		}
		if r.interval < 0 || r.interval >= len(keep) || !keep[r.interval] {
			continue
		}
		if r.delta < 0 {
			st.shrinks = append(st.shrinks, r.end-r.start)
			continue
		}
		st.grows = append(st.grows, r.end-r.start)
		first := o.first.Load()
		st.prov = append(st.prov, first-r.start)
		st.firstServe = append(st.firstServe, max(0, first-r.end))
	}
	return st
}
