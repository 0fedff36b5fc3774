package core

import (
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// This file holds the stub's invocation state and its future. Every
// invocation, synchronous or not, is driven by completions (see
// Stub.start): the member connection's read loop completes a successful
// attempt itself, so no goroutine waits on an attempt in flight.
//
// The state is pooled: the future's one terminal call recycles it, and a
// generation counter tells a live handle from a spent one. Its done
// channel is reused, so it is never closed: completion puts one token in
// its one slot, Done puts one back whenever the slot is empty after
// completion, and the terminal call drains it. An invocation allocates
// nothing.

// invocation is the recycled body of one invocation.
type invocation struct {
	// gen counts the terminal calls this state has served: a handle is
	// live while it holds the current value.
	gen atomic.Uint64

	mu        sync.Mutex // orders completed with the tokens in done
	completed bool       // the outcome is final; cleared by the terminal call
	done      chan struct{}

	stub        *Stub
	method, key string
	// payload is kept until the outcome is final: a retry re-sends it.
	payload           []byte
	deadline          time.Time
	attempt, attempts int
	addr              string      // the current attempt's member
	lease             route.Lease // the current attempt's in-flight record
	lastErr           error

	out []byte
	err error
}

var invocations = sync.Pool{New: func() any {
	return &invocation{done: make(chan struct{}, 1)}
}}

// spentDone is the already-closed channel Done returns for a spent or zero
// handle.
var spentDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// AsyncCall is the stub-level future of one asynchronous invocation. It
// always completes: retries and failovers happen behind it.
//
// An AsyncCall allows exactly one terminal call — Err, Result or Decode —
// which recycles the future; any later one returns ErrSpent, and Done on a
// spent (or zero) AsyncCall returns a closed channel. A future that is
// never spent is left to the GC. The handle is owned by one goroutine: a
// terminal call must not run concurrently with another method on it.
type AsyncCall struct {
	inv *invocation
	gen uint64
}

// live reports whether ac's state still belongs to ac's invocation.
func (ac AsyncCall) live() bool { return ac.inv != nil && ac.inv.gen.Load() == ac.gen }

// Done returns a channel that is ready once the invocation completes. It
// is not closed: after completion each call to Done makes it ready for one
// receive, so `<-ac.Done()` may be repeated and then followed by a
// terminal call.
func (ac AsyncCall) Done() <-chan struct{} {
	if !ac.live() {
		return spentDone
	}
	inv := ac.inv
	inv.mu.Lock()
	if inv.completed {
		select {
		case inv.done <- struct{}{}:
		default: // a token is already there
		}
	}
	inv.mu.Unlock()
	return inv.done
}

// spend is the terminal call: it waits for completion, takes the outcome
// and recycles the state. Only the caller whose compare-and-swap advances
// the generation takes the outcome.
func (ac AsyncCall) spend() ([]byte, error) {
	if !ac.live() {
		return nil, ErrSpent
	}
	inv := ac.inv
	<-ac.Done()
	if !inv.gen.CompareAndSwap(ac.gen, ac.gen+1) {
		return nil, ErrSpent
	}
	out, err := inv.out, inv.err
	inv.out, inv.err = nil, nil
	inv.mu.Lock()
	select {
	case <-inv.done:
	default:
	}
	inv.completed = false
	inv.mu.Unlock()
	invocations.Put(inv)
	return out, err
}

// Err blocks until completion and returns the invocation's error. The
// reply payload it discards goes back to the transport arena.
func (ac AsyncCall) Err() error {
	out, err := ac.spend()
	transport.ReleasePayload(out)
	return err
}

// Result blocks until completion and returns the raw response payload,
// which the caller then owns (see transport.ReleasePayload).
func (ac AsyncCall) Result() ([]byte, error) {
	return ac.spend()
}

// Decode blocks until completion and decodes the response payload into
// reply. A nil reply discards the payload. The payload goes back to the
// transport arena unless reply keeps zero-copy views into it.
func (ac AsyncCall) Decode(reply transport.Unmarshaler) error {
	out, err := ac.spend()
	if err != nil {
		return err
	}
	return transport.DecodeReply(out, reply)
}

// InvokeAsync starts one remote method invocation and returns its future
// without waiting for the reply. Semantics match Invoke: redirects are
// followed, failed members retried, application errors propagated
// verbatim; only the waiting moved off the caller.
func (s *Stub) InvokeAsync(method string, payload []byte) AsyncCall {
	return s.start(method, "", payload)
}

// complete makes the outcome final and signals it with one token.
func (inv *invocation) complete(out []byte, err error) {
	inv.out, inv.err = out, err
	inv.stub, inv.method, inv.key, inv.payload = nil, "", "", nil
	inv.addr, inv.lease, inv.lastErr = "", route.Lease{}, nil
	inv.mu.Lock()
	inv.completed = true
	select {
	case inv.done <- struct{}{}: // the slot is empty until completion
	default:
	}
	inv.mu.Unlock()
}
