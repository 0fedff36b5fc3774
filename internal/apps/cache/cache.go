// Package cache implements the distributed cache that serves as the paper's
// running example (Figures 4 and 5): a web/content/object cache as an
// elastic class. All three flavours from the paper are constructible:
//
//   - Implicit (Fig. 4a, CacheImplicit): only min/max pool size set; the
//     runtime's default CPU policy drives scaling.
//   - Explicit coarse (Fig. 4b, CacheExplicit1): CPU/RAM thresholds and a
//     burst interval set on the pool Config.
//   - Explicit fine (Fig. 5, CacheExplicit2): ChangePoolSize compares put
//     and get latencies and holds back when write-lock contention
//     (avgLockAcqFailure, avgLockAcqLatency) is the bottleneck.
//
// Entries live in the pool's shared state so the pool behaves as a single
// cache toward clients; puts take a per-key write lock to keep the
// read-modify-write of entry metadata consistent.
package cache

import (
	"errors"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
)

// Remote method names.
const (
	// MethodGet reads a key: (GetArgs) -> GetReply.
	MethodGet = "get"
	// MethodPut writes a key: (PutArgs) -> PutReply.
	MethodPut = "put"
	// MethodDelete removes a key: (GetArgs) -> DelReply.
	MethodDelete = "del"
	// MethodLen reports entry count: (core.Empty) -> LenReply.
	MethodLen = "len"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in cache.go -out cache_ermi.go

// Argument/reply structs.
//
//ermi:codec
type (
	// GetArgs names a key.
	GetArgs struct{ Key string }
	// GetReply returns the value; Hit is false for misses.
	GetReply struct {
		Value []byte
		Hit   bool
	}
	// PutArgs writes Key=Value.
	PutArgs struct {
		Key   string
		Value []byte
	}
	// PutReply acknowledges the write.
	PutReply struct{ Stored bool }
	// DelReply acknowledges the delete.
	DelReply struct{ Deleted bool }
	// LenReply carries the entry count.
	LenReply struct{ N int64 }
)

// Mode selects the elasticity flavour of the cache object.
type Mode int

// Cache modes, mirroring the paper's three example classes.
const (
	// Implicit relies on the runtime's default CPU-based scaling (Fig. 4a).
	Implicit Mode = iota + 1
	// ExplicitFine overrides ChangePoolSize with the Fig. 5 logic.
	ExplicitFine
)

// Config tunes the fine-grained policy thresholds of Fig. 5.
type Config struct {
	Mode Mode
	// PutLatencyBound is Fig. 5's "putLatency > 100" bound. Default 2ms
	// (in-process scale).
	PutLatencyBound time.Duration
	// LockFailureHighPct is Fig. 5's avgLockAcqFailure > 50 cut. Default 50.
	LockFailureHighPct float64
	// CapacityEntries is the per-member entry budget backing the RAM gauge
	// (how full the cache "memory" is, for the CacheExplicit1-style RAM
	// thresholds of Fig. 4b). Default 1024.
	CapacityEntries int64
	// IdleRate is the per-member request rate (gets+puts per second) below
	// which the fine-grained policy releases one object — the scale-down
	// rule Fig. 5 leaves implicit. Default 10.
	IdleRate float64
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ExplicitFine
	}
	if c.PutLatencyBound == 0 {
		c.PutLatencyBound = 2 * time.Millisecond
	}
	if c.LockFailureHighPct == 0 {
		c.LockFailureHighPct = 50
	}
	if c.CapacityEntries == 0 {
		c.CapacityEntries = 1024
	}
	if c.IdleRate == 0 {
		c.IdleRate = 10
	}
	return c
}

// Cache is one member of the elastic cache pool.
type Cache struct {
	ctx *core.MemberContext
	cfg Config
	mux *core.Mux

	// Write-lock contention counters over the burst interval (Fig. 5's
	// avgLockAcqFailure / avgLockAcqLatency).
	lockAttempts  atomic.Int64
	lockFailures  atomic.Int64
	lockWaitNanos atomic.Int64
}

var (
	_ core.Object   = (*Cache)(nil)
	_ core.RAMGauge = (*Cache)(nil)
)

// RAMUsage implements core.RAMGauge: cache occupancy as a fraction of the
// per-pool entry budget, in percent. It is the memory-utilization signal
// the CacheExplicit1 example of Fig. 4b scales on.
func (c *Cache) RAMUsage() float64 {
	rep, err := c.length(core.Empty{})
	if err != nil {
		return 0
	}
	size := c.ctx.PoolSize()
	if size < 1 {
		size = 1
	}
	budget := c.cfg.CapacityEntries * int64(size)
	return 100 * float64(rep.N) / float64(budget)
}

// fineCache adds the ChangePoolSize override; a separate type so the
// implicit flavour does NOT implement core.PoolSizer (the runtime selects
// the decision mechanism by interface detection, like the preprocessor
// detects the override).
type fineCache struct {
	*Cache
}

var _ core.PoolSizer = fineCache{}

// New creates the cache factory for core.NewPool.
func New(cfg Config) core.Factory {
	cfg = cfg.withDefaults()
	return func(ctx *core.MemberContext) (core.Object, error) {
		c := &Cache{ctx: ctx, cfg: cfg, mux: core.NewMux()}
		core.Handle(c.mux, MethodGet, c.get)
		core.Handle(c.mux, MethodPut, c.put)
		core.Handle(c.mux, MethodDelete, c.del)
		core.Handle(c.mux, MethodLen, c.length)
		if cfg.Mode == ExplicitFine {
			return fineCache{c}, nil
		}
		return c, nil
	}
}

// HandleCall implements core.Object.
func (c *Cache) HandleCall(method string, arg []byte) ([]byte, error) {
	return c.mux.HandleCall(method, arg)
}

func (c *Cache) get(a GetArgs) (GetReply, error) {
	if a.Key == "" {
		return GetReply{}, errors.New("cache: empty key")
	}
	val, err := c.ctx.State.GetBytes("entry/" + a.Key)
	if err != nil {
		return GetReply{}, err
	}
	if val == nil {
		return GetReply{Hit: false}, nil
	}
	return GetReply{Value: val, Hit: true}, nil
}

// put takes the per-key write lock to ensure consistency, recording
// contention statistics exactly like CacheExplicit2.
func (c *Cache) put(a PutArgs) (PutReply, error) {
	if a.Key == "" {
		return PutReply{}, errors.New("cache: empty key")
	}
	lock := "cache-w/" + a.Key
	start := time.Now()
	backoff := 500 * time.Microsecond
	var release func() error
	for {
		rel, ok, err := c.ctx.State.TryLock(lock)
		if err != nil {
			return PutReply{}, err
		}
		c.lockAttempts.Add(1)
		if ok {
			release = rel
			break
		}
		c.lockFailures.Add(1)
		time.Sleep(backoff)
		if backoff < 16*time.Millisecond {
			backoff *= 2
		}
	}
	c.lockWaitNanos.Add(time.Since(start).Nanoseconds())
	defer func() { _ = release() }()

	if err := c.ctx.State.PutBytes("entry/"+a.Key, a.Value); err != nil {
		return PutReply{}, err
	}
	if _, err := c.ctx.State.AddInt("puts", 1); err != nil {
		return PutReply{}, err
	}
	return PutReply{Stored: true}, nil
}

func (c *Cache) del(a GetArgs) (DelReply, error) {
	if err := c.ctx.State.Delete("entry/" + a.Key); err != nil {
		return DelReply{}, err
	}
	return DelReply{Deleted: true}, nil
}

func (c *Cache) length(core.Empty) (LenReply, error) {
	fields, err := c.ctx.State.Fields()
	if err != nil {
		return LenReply{}, err
	}
	var n int64
	for _, f := range fields {
		if len(f) > 6 && f[:6] == "entry/" {
			n++
		}
	}
	return LenReply{N: n}, nil
}

// ChangePoolSize is a direct transcription of Fig. 5's CacheExplicit2
// logic: grow by two when puts are slow, unless write-lock contention is
// the real bottleneck — then adding objects would only increase contention.
func (c fineCache) ChangePoolSize() int {
	sMap := c.ctx.MethodCallStats()
	putLatency := sMap[MethodPut].AvgLatency
	getLatency := sMap[MethodGet].AvgLatency

	attempts := c.lockAttempts.Swap(0)
	failures := c.lockFailures.Swap(0)
	waitNanos := c.lockWaitNanos.Swap(0)
	var avgLockAcqFailure, avgLockAcqLatency float64
	if attempts > 0 {
		avgLockAcqFailure = 100 * float64(failures) / float64(attempts)
		avgLockAcqLatency = float64(waitNanos) / float64(attempts)
	}

	if putLatency > c.cfg.PutLatencyBound || (getLatency > 0 && putLatency > 3*getLatency) {
		if avgLockAcqFailure > c.cfg.LockFailureHighPct {
			return 0
		}
		if avgLockAcqLatency >= 0.8*float64(putLatency) {
			return 0
		}
		return 2
	}
	// Scale-down (Fig. 5 leaves this implicit): release an object when the
	// member is close to idle and comfortably inside the latency budget.
	rate := sMap[MethodPut].RatePerSec + sMap[MethodGet].RatePerSec
	if rate < c.cfg.IdleRate && putLatency < c.cfg.PutLatencyBound/2 {
		return -1
	}
	return 0
}

// ContentionStats exposes the current interval's lock counters (testing).
func (c *Cache) ContentionStats() (attempts, failures int64) {
	return c.lockAttempts.Load(), c.lockFailures.Load()
}
