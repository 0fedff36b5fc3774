package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// TestInvokeAsyncRoundTrip pipelines a window of async invocations from one
// goroutine and checks the shared counter saw every one exactly once.
func TestInvokeAsyncRoundTrip(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	_ = pool
	stub, err := LookupStub("async-counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const n = 64
	arg := transport.Encode(&addArgs{N: 1})
	futures := make([]AsyncCall, n)
	for i := 0; i < n; i++ {
		futures[i] = stub.InvokeAsync("Add", arg)
	}
	for i, f := range futures {
		if err := f.Decode(&addReply{}); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != n {
		t.Fatalf("total = %d, want %d (async invocations lost or duplicated)", rep.Total, n)
	}
}

// TestInvokeAsyncFailsOver: the async path inherits Invoke's failover — a
// dead seed endpoint must not fail the future.
func TestInvokeAsyncFailsOver(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-failover", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	live := pool.Endpoints()[1]
	stub, err := NewStub("async-failover", []string{"127.0.0.1:1", live})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	var rep addReply
	if err := stub.InvokeAsync("Add", transport.Encode(&addArgs{N: 5})).Decode(&rep); err != nil {
		t.Fatalf("async invoke with dead seed: %v", err)
	}
	if rep.Total != 5 {
		t.Fatalf("total = %d", rep.Total)
	}
}

// TestInvokeAsyncCountsFailoverLikeInvoke: an asynchronous invocation runs
// the synchronous failover loop, so failing over from a dead first member
// costs the same StaleRetries() either way.
func TestInvokeAsyncCountsFailoverLikeInvoke(t *testing.T) {
	env := newTestEnv(t, 8)
	pool := newTestPool(t, env, Config{
		Name: "async-stale", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	live := pool.Endpoints()[1]
	retries := func(invoke func(*Stub) error) uint64 {
		stub, err := NewStub("async-stale", []string{"127.0.0.1:1", live})
		if err != nil {
			t.Fatalf("NewStub: %v", err)
		}
		defer stub.Close()
		before := stub.StaleRetries()
		if err := invoke(stub); err != nil {
			t.Fatalf("invoke with dead seed: %v", err)
		}
		return stub.StaleRetries() - before
	}
	sync := retries(func(s *Stub) error { _, err := s.Invoke(MethodPing, nil); return err })
	async := retries(func(s *Stub) error { return s.InvokeAsync(MethodPing, nil).Err() })
	if sync == 0 || async != sync {
		t.Fatalf("stale retries: Invoke %d, InvokeAsync %d; want equal and nonzero", sync, async)
	}
}

// TestInvokeAsyncAllDeadPropagates: only when the whole pool is unreachable
// does the future surface an error (§4.3 contract, async edition).
func TestInvokeAsyncAllDeadPropagates(t *testing.T) {
	stub, err := NewStub("ghost", []string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatalf("NewStub: %v", err)
	}
	defer stub.Close()
	if err := stub.InvokeAsync("M", nil).Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestAsyncCallSpentHandle: a future allows one terminal call. Any second
// one returns ErrSpent, also once the state has been recycled into a later
// invocation, and Done on a spent or zero handle is already closed.
func TestAsyncCallSpentHandle(t *testing.T) {
	stub, obj := newEchoStub(t)
	terminal := map[string]func(AsyncCall) ([]byte, error){
		"Err":    func(ac AsyncCall) ([]byte, error) { return nil, ac.Err() },
		"Result": AsyncCall.Result,
		"Decode": func(ac AsyncCall) ([]byte, error) { return nil, ac.Decode(nil) },
	}
	for first, spend := range terminal {
		for second, again := range terminal {
			ac := stub.InvokeAsync("Echo", []byte("first"))
			if _, err := spend(ac); err != nil {
				t.Fatalf("%s: %v", first, err)
			}
			next := stub.InvokeAsync("Echo", []byte("next")) // likely reuses ac's state
			if out, err := again(ac); !errors.Is(err, ErrSpent) || out != nil {
				t.Fatalf("%s after %s = %q, %v; want ErrSpent", second, first, out, err)
			}
			if out, err := next.Result(); err != nil || string(out) != "next" {
				t.Fatalf("invocation after a spent handle = %q, %v", out, err)
			}
		}
	}

	// A spent handle whose state may now serve a pending invocation still
	// reports done, and never that invocation's outcome.
	ac := stub.InvokeAsync("Echo", []byte("first"))
	if err := ac.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	pending := stub.InvokeAsync("Block", []byte("blocked"))
	select {
	case <-ac.Done():
	default:
		t.Fatal("Done on a spent handle is open")
	}
	if out, err := ac.Result(); !errors.Is(err, ErrSpent) || out != nil {
		t.Fatalf("Result on a spent handle = %q, %v; want ErrSpent", out, err)
	}
	close(obj.release)
	if out, err := pending.Result(); err != nil || string(out) != "blocked" {
		t.Fatalf("pending invocation = %q, %v", out, err)
	}

	var zero AsyncCall
	select {
	case <-zero.Done():
	default:
		t.Fatal("Done on the zero AsyncCall is open")
	}
	if err := zero.Err(); !errors.Is(err, ErrSpent) {
		t.Fatalf("zero Err = %v, want ErrSpent", err)
	}
	if _, err := zero.Result(); !errors.Is(err, ErrSpent) {
		t.Fatalf("zero Result = %v, want ErrSpent", err)
	}
	if err := zero.Decode(nil); !errors.Is(err, ErrSpent) {
		t.Fatalf("zero Decode = %v, want ErrSpent", err)
	}
}

// copyReply decodes by copying, so Decode recycles the payload after it.
type copyReply struct{ b []byte }

func (r *copyReply) UnmarshalERMI(b []byte) error {
	r.b = append(r.b[:0], b...)
	return nil
}

// TestAsyncCallRecyclingStress: several goroutines each keep a window of
// futures in flight against an echo pool, so every terminal call recycles
// a state (and Err and Decode a reply payload) into some goroutine's next
// invocation. Every reply must equal its own request, and each spent
// handle, tried again once its state has likely moved on, must return
// ErrSpent. `make async-recycle` runs it under the race detector, beside
// TestAsyncTimerRaceStress.
func TestAsyncCallRecyclingStress(t *testing.T) {
	stub, _ := newEchoStub(t)
	const callers, window, rounds = 8, 16, 100
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			futures := make([]AsyncCall, window)
			spent := make([]AsyncCall, 0, window)
			reqs := make([][]byte, window)
			var rep copyReply
			for r := range rounds {
				for i := range futures {
					reqs[i] = binary.LittleEndian.AppendUint64(
						binary.LittleEndian.AppendUint32(nil, uint32(g)), uint64(r*window+i))
					futures[i] = stub.InvokeAsync("Echo", reqs[i])
				}
				for _, old := range spent {
					if out, err := old.Result(); !errors.Is(err, ErrSpent) || out != nil {
						t.Errorf("caller %d: spent handle = %x, %v; want ErrSpent", g, out, err)
						return
					}
				}
				for i, f := range futures {
					var out []byte
					var err error
					switch i % 3 {
					case 0:
						out, err = f.Result()
					case 1:
						err = f.Decode(&rep)
						out = rep.b
					case 2:
						err = f.Err()
						out = reqs[i]
					}
					if err != nil || !bytes.Equal(out, reqs[i]) {
						t.Errorf("caller %d: reply %x, %v to request %x", g, out, err, reqs[i])
						return
					}
				}
				spent = append(spent[:0], futures...)
			}
		}()
	}
	wg.Wait()
}

// TestSentinelSeesAsyncPendingWork: in-flight async invocations must show
// up in the member pending counts the sentinel broadcasts and the scaling
// policies read — queued async work is real load.
func TestSentinelSeesAsyncPendingWork(t *testing.T) {
	env := newTestEnv(t, 8)
	release := make(chan struct{})
	var once sync.Once
	factory := func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Block", func(Empty) (Empty, error) {
			<-release
			return Empty{}, nil
		})
		return mux, nil
	}
	pool, err := NewPool(Config{
		Name: "async-pending", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() {
		once.Do(func() { close(release) })
		pool.Close()
	})
	stub, err := LookupStub("async-pending", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const n = 8
	arg := transport.Encode(&Empty{})
	futures := make([]AsyncCall, n)
	for i := 0; i < n; i++ {
		futures[i] = stub.InvokeAsync("Block", arg)
	}
	// Once the frames land, the member meters (the numbers the sentinel
	// broadcasts and policies consume) count them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, m := range pool.Members() {
			total += m.Pending
		}
		if total == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member pending = %d, want %d (async work invisible to sentinel)", total, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	once.Do(func() { close(release) })
	for i, f := range futures {
		if err := f.Err(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
}

// TestStubPipelinesConcurrentFutures: a stub keeps full invocation
// coherence when many goroutines each keep a window of futures in flight.
func TestStubPipelinesConcurrentFutures(t *testing.T) {
	env := newTestEnv(t, 8)
	newTestPool(t, env, Config{
		Name: "pipelined-counter", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	})
	stub, err := LookupStub("pipelined-counter", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	const callers, per = 8, 32
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arg := transport.Encode(&addArgs{N: 1})
			futures := make([]AsyncCall, per)
			for i := range futures {
				futures[i] = stub.InvokeAsync("Add", arg)
			}
			for _, f := range futures {
				if err := f.Decode(&addReply{}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	rep, err := Call[Empty, addReply](stub, "Get", Empty{})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rep.Total != callers*per {
		t.Fatalf("total = %d, want %d", rep.Total, callers*per)
	}
}

// TestInvocationsExecuteOnDrainingMember: under epoch routing a draining
// member never refuses work — clients are steered away by the routing
// table, not by errors. Anything that still reaches the member (stale
// two-way callers, and one-way invocations, which carry no reply to
// correct the sender with) must execute locally instead of being dropped —
// otherwise every scale-down loses traffic for the whole drain window.
func TestInvocationsExecuteOnDrainingMember(t *testing.T) {
	env := newTestEnv(t, 8)
	var hits atomic.Int64
	factory := func(ctx *MemberContext) (Object, error) {
		mux := NewMux()
		Handle(mux, "Tick", func(Empty) (Empty, error) {
			hits.Add(1)
			return Empty{}, nil
		})
		return mux, nil
	}
	pool, err := NewPool(Config{
		Name: "oneway-drain", MinPoolSize: 2, MaxPoolSize: 2,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, factory, env.deps())
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { pool.Close() })
	stub, err := LookupStub("oneway-drain", env.regCli)
	if err != nil {
		t.Fatalf("LookupStub: %v", err)
	}
	defer stub.Close()

	// Put every member into the draining state (as a scale-down would).
	pool.mu.Lock()
	members := append([]*member(nil), pool.members...)
	pool.mu.Unlock()
	for _, m := range members {
		m.draining.Store(true)
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.draining.Store(false)
		}
	})

	// Two-way invocations that reach a draining member are served (the
	// stub's table still lists both members; only a fresh epoch would
	// exclude them)...
	if _, err := stub.Invoke("Tick", transport.Encode(&Empty{})); err != nil {
		t.Fatalf("two-way invocation refused by draining member: %v", err)
	}
	hits.Store(0)
	// ...and one-way invocations must execute rather than vanish.
	const perMember = 5
	n := int64(perMember * len(members))
	for i, m := range members {
		c, err := transport.Dial(m.addr)
		if err != nil {
			t.Fatalf("dial member %d: %v", i, err)
		}
		defer c.Close()
		for j := 0; j < perMember; j++ {
			if err := c.OneWay("oneway-drain", "Tick", transport.Encode(&Empty{})); err != nil {
				t.Fatalf("one-way Tick %d to member %d during drain: %v", j, i, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for hits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("draining members executed %d/%d one-way invocations", hits.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
