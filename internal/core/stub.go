package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// Stub is the client's local representative of an elastic object pool
// (§2.3). To the client application the pool is a single remote object; the
// stub holds an epoch-versioned routing table (internal/route), picks a
// member per call — round-robin, power-of-two-choices over the piggybacked
// load reports, or consistent-hash key affinity — and fails invocations
// over to other members. Stale tables correct themselves in-band: every
// request carries the stub's epoch and any reply from a member holding a
// newer table piggybacks the update, so a scale event converges within one
// reply round-trip with no redirect bouncing and no sentinel hot spot. Only
// when all attempts to communicate with the pool fail is the error
// propagated to the application.
type Stub struct {
	name     string
	timeout  time.Duration
	strategy route.Strategy

	// routes is the epoch-versioned routing view, advanced exclusively by
	// piggybacked updates arriving on this stub's connections.
	routes *route.State

	// conns dials and caches one client per member outside any stub lock,
	// with a per-address singleflight guard: a slow or unreachable member
	// stalls only the callers that picked it, never the whole stub. Every
	// client it dials stamps requests with the stub's epoch and feeds
	// route updates back into routes.
	conns *transport.ConnCache

	// asyncq hands an asynchronous invocation to a parked async worker;
	// unbuffered, so a send succeeds only when one is waiting.
	// asyncWorkers counts live async workers, asyncIdle the parked ones.
	// stop, closed by Close, ends the parked ones.
	asyncq       chan *AsyncCall
	asyncWorkers atomic.Int32
	asyncIdle    atomic.Int32
	stop         chan struct{}

	// staleRetries counts failover attempts after the first pick of an
	// invocation — the cost of acting on a stale or degraded view. Churn
	// tests assert this stays bounded.
	staleRetries atomic.Uint64

	closed atomic.Bool
}

// StubOption customizes stub behaviour.
type StubOption func(*Stub)

// WithPowerOfTwoBalancing selects power-of-two-choices member choice: two
// random members are sampled per call and the one with the lower load wins,
// where load combines the pool's piggybacked pending reports with this
// stub's own in-flight counts. Under skewed or bursty load it avoids hot
// members that round-robin keeps feeding.
func WithPowerOfTwoBalancing() StubOption {
	return func(s *Stub) { s.strategy = route.PowerOfTwo }
}

// WithCallTimeout sets the per-invocation deadline budget: the total time
// one Invoke may spend across every failover attempt, not a fresh allowance
// per attempt. Each attempt is stamped with the remaining budget on the
// wire, so members drop the work unexecuted once the caller is gone.
// Default 10s; d <= 0 disables the deadline.
func WithCallTimeout(d time.Duration) StubOption {
	return func(s *Stub) { s.timeout = d }
}

// NewStub creates a stub for the elastic class name from seed endpoints
// (typically the registry binding, sentinel first). The seed is an
// epoch-zero table; the first reply from any member piggybacks the pool's
// real routing table and supersedes it.
func NewStub(name string, endpoints []string, opts ...StubOption) (*Stub, error) {
	if name == "" {
		return nil, errors.New("core: stub needs a pool name")
	}
	if len(endpoints) == 0 {
		return nil, errors.New("core: stub needs at least one endpoint")
	}
	s := &Stub{
		name:    name,
		timeout: 10 * time.Second,
		routes:  route.NewState(route.Seed(endpoints)),
		asyncq:  make(chan *AsyncCall),
		stop:    make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.conns = transport.NewConnCache(transport.DialOptions{
		Timeout:       2 * time.Second,
		Epoch:         s.routes.Epoch,
		OnRouteUpdate: func(t route.Table) { s.routes.Advance(t) },
	})
	return s, nil
}

// LookupStub resolves name through the registry and returns a stub.
func LookupStub(name string, reg *RegistryClient, opts ...StubOption) (*Stub, error) {
	eps, err := reg.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("core: lookup %s: %w", name, err)
	}
	return NewStub(name, eps, opts...)
}

// Members returns the member addresses the stub currently considers
// routable (draining and locally unreachable members excluded).
func (s *Stub) Members() []string {
	return s.routes.Addrs()
}

// RouteEpoch returns the epoch of the stub's current routing table (0 =
// still on the bootstrap seed).
func (s *Stub) RouteEpoch() uint64 { return s.routes.Epoch() }

// RouteAdvances returns how many piggybacked table updates this stub has
// installed.
func (s *Stub) RouteAdvances() uint64 { return s.routes.Advances() }

// StaleRetries returns how many failover attempts the stub has made beyond
// the first pick of each invocation — the observable cost of view
// staleness.
func (s *Stub) StaleRetries() uint64 { return s.staleRetries.Load() }

// Refresh proactively synchronizes the stub's routing table by pinging the
// pool: if the stub is stale, the reply piggybacks the current table like
// any other reply would. Ordinary invocations self-correct the same way —
// Refresh just gives tests and interactive tools a deterministic sync
// point without invoking an application method.
func (s *Stub) Refresh() error {
	_, err := s.Invoke(MethodPing, nil)
	return err
}

// pickFor chooses the member for one attempt: the consistent-hash owner
// when an affinity key is present, the stub's strategy otherwise. When
// every member is locally excluded it falls back to picking among them
// anyway — one of those dials succeeding is the only way a reply (and with
// it a fresh table that clears the exclusions) can ever arrive after a
// transient total outage.
func (s *Stub) pickFor(key string) (string, bool) {
	if key != "" {
		if addr, ok := s.routes.PickKeyed(key); ok {
			return addr, ok
		}
	} else if addr, ok := s.routes.Pick(s.strategy); ok {
		return addr, ok
	}
	return s.routes.PickAny()
}

func (s *Stub) conn(addr string) (*transport.Client, error) {
	c, err := s.conns.Get(addr)
	if errors.Is(err, transport.ErrClosed) {
		return nil, ErrPoolClosed
	}
	return c, err
}

// Invoke executes one remote method invocation against the pool, balanced
// by the stub's strategy. Failed members are excluded and retried on
// others; the error is propagated only if all attempts to communicate with
// the pool fail.
func (s *Stub) Invoke(method string, payload []byte) ([]byte, error) {
	return s.invoke(method, "", payload)
}

// InvokeKeyed executes one remote method invocation routed by key
// affinity: all invocations carrying the same key land on the key's
// consistent-hash owner (every stub holding the same table agrees on it),
// so member-local state — caches, session data — stays hot. When the owner
// is draining or unreachable the key fails over to the next member
// clockwise on the ring and snaps back on the next epoch.
func (s *Stub) InvokeKeyed(method, key string, payload []byte) ([]byte, error) {
	return s.invoke(method, key, payload)
}

// invocationDeadline anchors the stub's per-invocation budget at the wall
// clock (zero time = no deadline).
func (s *Stub) invocationDeadline() time.Time {
	if s.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.timeout)
}

func (s *Stub) invoke(method, key string, payload []byte) ([]byte, error) {
	return s.invokeDeadline(method, key, payload, s.invocationDeadline())
}

// invokeDeadline runs the failover loop under one shared deadline: every
// attempt is granted only what remains of the invocation's budget (and
// stamps that remainder on the wire), so the worst case is bounded by the
// budget itself, never by attempts × timeout.
func (s *Stub) invokeDeadline(method, key string, payload []byte, deadline time.Time) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrPoolClosed
	}
	var lastErr error
	// Bound the failover loop: each iteration either returns, or excludes
	// the picked member so it cannot be picked again until a newer epoch
	// arrives. The slack beyond the member count absorbs an epoch advance
	// (which clears exclusions) landing mid-invocation.
	attempts := 2*s.routes.Len() + 2
	for i := 0; i < attempts; i++ {
		if s.closed.Load() {
			return nil, ErrPoolClosed
		}
		remaining := time.Duration(0) // 0 = unbounded
		if !deadline.IsZero() {
			if remaining = time.Until(deadline); remaining <= 0 {
				if lastErr == nil {
					lastErr = transport.ErrTimeout
				}
				break
			}
		}
		addr, ok := s.pickFor(key)
		if !ok {
			break
		}
		if i > 0 {
			s.staleRetries.Add(1)
		}
		c, err := s.conn(addr)
		if err != nil {
			if errors.Is(err, ErrPoolClosed) {
				return nil, err
			}
			// The member may have been removed after its identity reached
			// this stub (§4.3): exclude it until a newer table says
			// otherwise and try the next candidate.
			lastErr = err
			s.routes.Exclude(addr)
			continue
		}
		lease := s.routes.Acquire(addr)
		out, err := c.Call(s.name, method, payload, remaining)
		lease.Release()
		if err == nil {
			s.routes.Readmit(addr)
			return out, nil
		}
		switch {
		case isRemoteAppError(err):
			// The method executed and returned an application error; do not
			// retry elsewhere.
			return nil, err
		case errors.Is(err, transport.ErrFrameTooLarge):
			// Caller-side payload bug: the request cannot be framed for any
			// member and the connection is still healthy. Fail just this
			// call instead of dropping members.
			return nil, err
		case errors.Is(err, transport.ErrOverloaded), errors.Is(err, transport.ErrExpired):
			// The member's admission controller refused the work: it is
			// saturated, not gone. Feed the balancer's load signal instead of
			// tombstoning the member, and try a less-loaded one. Checked
			// before ErrTimeout, which an expired reply also matches.
			s.routes.MarkLoaded(addr)
			lastErr = err
		case errors.Is(err, transport.ErrTimeout):
			// Slow is not dead: the connection is healthy and multiplexes
			// other callers' in-flight invocations, so dropping it would fail
			// them all, and the member itself may answer everyone else
			// promptly. Keep both; the shared budget (charged above) is what
			// bounds how long this invocation keeps trying.
			lastErr = err
		default:
			// Transport failure: exclude the member and fail over.
			lastErr = err
			s.routes.Exclude(addr)
			s.conns.Drop(addr)
		}
	}
	if lastErr == nil {
		lastErr = errors.New("core: no members left to try")
	}
	return nil, fmt.Errorf("%w: %s.%s: %v", ErrUnavailable, s.name, method, lastErr)
}

// isRemoteAppError distinguishes an error raised by the application method
// (which must propagate) from infrastructure failures (which are retried).
func isRemoteAppError(err error) bool {
	var remote *transport.RemoteError
	return errors.As(err, &remote)
}

// Close releases all connections and ends the parked async workers.
func (s *Stub) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.stop)
	return s.conns.Close()
}

// Call is the typed convenience wrapper around Stub.Invoke: it encodes the
// argument and decodes the reply through their generated codecs, mirroring
// the static typing a generated RMI stub provides. Payloads travel through
// the transport arena: the request buffer is recycled once Invoke returns,
// and the reply buffer is recycled after decoding unless the reply type
// keeps zero-copy views into it.
func Call[Arg, Reply any, PA Payload[Arg], PR Payload[Reply]](s *Stub, method string, arg Arg) (Reply, error) {
	payload := transport.Encode(PA(&arg))
	out, err := s.Invoke(method, payload)
	transport.ReleasePayload(payload)
	return decodeReply[Reply, PR](out, err)
}

// CallKeyed is Call routed by consistent-hash key affinity (see
// InvokeKeyed): same-key invocations land on the same member.
func CallKeyed[Arg, Reply any, PA Payload[Arg], PR Payload[Reply]](s *Stub, method, key string, arg Arg) (Reply, error) {
	payload := transport.Encode(PA(&arg))
	out, err := s.InvokeKeyed(method, key, payload)
	transport.ReleasePayload(payload)
	return decodeReply[Reply, PR](out, err)
}

// decodeReply decodes an invocation's reply payload and recycles it,
// unless the reply type keeps zero-copy views into it (the generated codec
// marks such types with an ERMIViews method).
func decodeReply[Reply any, PR Payload[Reply]](out []byte, err error) (Reply, error) {
	var reply Reply
	if err != nil {
		return reply, err
	}
	err = transport.Decode(out, PR(&reply))
	if _, viewy := any(PR(nil)).(interface{ ERMIViews() }); !viewy {
		transport.ReleasePayload(out)
	}
	if err != nil {
		var zero Reply
		return zero, err
	}
	return reply, nil
}
