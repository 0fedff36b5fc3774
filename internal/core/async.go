package core

import (
	"sync"
	"sync/atomic"

	"elasticrmi/internal/transport"
)

// This file is the stub half of the asynchronous invocation pipeline: the
// synchronous Invoke of stub.go decouples into submission (InvokeAsync) and
// completion (AsyncCall), so one caller can keep many invocations in flight
// against the elastic pool. An asynchronous invocation runs Invoke's
// failover loop (redirects, member retry, refresh) on an async worker: a
// goroutine that parks between invocations, so a steady stream of them
// reuses parked workers instead of starting one per call. Concurrent
// attempts on one member connection coalesce in its write buffer, and the
// paper's "error surfaces only when the whole pool is unreachable" contract
// holds as for Invoke.
//
// A future's state is recycled: AsyncCall is a value handle over a pooled
// asyncState, and the handle's one terminal call (Err, Result or Decode)
// takes the outcome and returns the state to the pool. A steady stream of
// asynchronous invocations therefore allocates only each one's done
// channel, which cannot be reused once closed. The state's generation
// counter tells a live handle from a spent one, so a spent handle can
// never observe the outcome of the invocation that reuses its state.

// asyncState is the recycled body of one asynchronous invocation. The
// worker reads method and payload, drops them, writes out and err, then
// closes done; the handle's terminal call reads the outcome after done and
// clears it before the state goes back to asyncStates.
type asyncState struct {
	// gen counts the terminal calls this state has served: a handle is
	// live while it holds the current value.
	gen     atomic.Uint64
	done    chan struct{}
	out     []byte
	err     error
	method  string
	payload []byte
}

var asyncStates = sync.Pool{New: func() any { return new(asyncState) }}

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
	st  *asyncState
	gen uint64
}

// live reports whether ac's state still belongs to ac's invocation.
func (ac AsyncCall) live() bool { return ac.st != nil && ac.st.gen.Load() == ac.gen }

// Done returns a channel closed when the invocation completes.
func (ac AsyncCall) Done() <-chan struct{} {
	if !ac.live() {
		return spentDone
	}
	return ac.st.done
}

// spend is the terminal call: it waits for completion, takes the outcome
// and recycles the state. Only the caller whose compare-and-swap advances
// the generation takes the outcome.
func (ac AsyncCall) spend() ([]byte, error) {
	if !ac.live() {
		return nil, ErrSpent
	}
	st := ac.st
	<-st.done
	if !st.gen.CompareAndSwap(ac.gen, ac.gen+1) {
		return nil, ErrSpent
	}
	out, err := st.out, st.err
	st.done, st.out, st.err = nil, nil, nil
	asyncStates.Put(st)
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
	if reply != nil {
		err = transport.Decode(out, reply)
		if _, viewy := reply.(interface{ ERMIViews() }); viewy {
			return err
		}
	}
	transport.ReleasePayload(out)
	return err
}

// InvokeAsync starts one remote method invocation and returns its future
// immediately. Semantics match Invoke: redirects are followed, failed
// members retried, application errors propagated verbatim; only the waiting
// moved off the caller.
func (s *Stub) InvokeAsync(method string, payload []byte) AsyncCall {
	st := asyncStates.Get().(*asyncState)
	st.done = make(chan struct{})
	st.method, st.payload = method, payload
	ac := AsyncCall{st: st, gen: st.gen.Load()}
	select {
	case s.asyncq <- st:
	default:
		s.asyncWorkers.Add(1)
		go s.asyncWorker(st)
	}
	return ac
}

// maxIdleAsyncWorkers caps a stub's parked async workers: one that
// finishes while this many others are parked exits, so a burst's workers
// do not outlive it.
const maxIdleAsyncWorkers = 64

// asyncWorker runs st, then parks on the stub's hand-off channel for the
// next invocation until the stub closes or enough others are parked.
func (s *Stub) asyncWorker(st *asyncState) {
	defer s.asyncWorkers.Add(-1)
	for {
		st.out, st.err = s.invoke(st.method, "", st.payload)
		st.method, st.payload = "", nil
		close(st.done)
		if s.asyncIdle.Add(1) > maxIdleAsyncWorkers {
			s.asyncIdle.Add(-1)
			return
		}
		select {
		case st = <-s.asyncq:
			s.asyncIdle.Add(-1)
		case <-s.stop:
			s.asyncIdle.Add(-1)
			return
		}
	}
}
