package core

import (
	"errors"
	"fmt"
	"sync"

	"elasticrmi/internal/transport"
)

// This file is the stub half of the asynchronous invocation pipeline: the
// synchronous Invoke of stub.go decouples into submission (InvokeAsync,
// InvokeOneWay) and completion (AsyncCall), so one caller can keep many
// invocations in flight against the elastic pool. An asynchronous
// invocation runs Invoke's failover loop (redirects, member retry, refresh)
// on an async worker: a goroutine that parks between invocations, so a
// steady stream of them reuses parked workers instead of starting one per
// call. Concurrent attempts on one member connection coalesce in its write
// buffer, and the paper's "error surfaces only when the whole pool is
// unreachable" contract holds as for Invoke.

// AsyncCall is the stub-level future of one asynchronous invocation. It
// always completes: retries and failovers happen behind it.
type AsyncCall struct {
	done chan struct{}
	out  []byte
	err  error
	// method and payload are the invocation the worker runs; payload is
	// dropped once it has.
	method  string
	payload []byte
}

// Done returns a channel closed when the invocation completes.
func (ac *AsyncCall) Done() <-chan struct{} { return ac.done }

// Err blocks until completion and returns the invocation's error.
func (ac *AsyncCall) Err() error {
	<-ac.done
	return ac.err
}

// Result blocks until completion and returns the raw response payload.
func (ac *AsyncCall) Result() ([]byte, error) {
	<-ac.done
	return ac.out, ac.err
}

// Decode blocks until completion and decodes the response payload into
// reply. A nil reply discards the payload.
func (ac *AsyncCall) Decode(reply transport.Unmarshaler) error {
	out, err := ac.Result()
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return transport.Decode(out, reply)
}

// Pending reports the number of asynchronous invocations started on this
// stub that have not completed yet — client-side queued work the member
// meters cannot see until the frames arrive.
func (s *Stub) Pending() int {
	return int(s.pendingN.Load())
}

// InvokeAsync starts one remote method invocation and returns its future
// immediately. Semantics match Invoke: redirects are followed, failed
// members retried, application errors propagated verbatim; only the waiting
// moved off the caller.
func (s *Stub) InvokeAsync(method string, payload []byte) *AsyncCall {
	ac := &AsyncCall{done: make(chan struct{}), method: method, payload: payload}
	s.pendingN.Add(1)
	select {
	case s.asyncq <- ac:
	default:
		s.asyncWorkers.Add(1)
		go s.asyncWorker(ac)
	}
	return ac
}

// maxIdleAsyncWorkers caps a stub's parked async workers: one that
// finishes while this many others are parked exits, so a burst's workers
// do not outlive it.
const maxIdleAsyncWorkers = 64

// asyncWorker runs ac, then parks on the stub's hand-off channel for the
// next invocation until the stub closes or enough others are parked.
func (s *Stub) asyncWorker(ac *AsyncCall) {
	defer s.asyncWorkers.Add(-1)
	for {
		ac.out, ac.err = s.invoke(ac.method, "", ac.payload)
		ac.payload = nil
		s.pendingN.Add(-1)
		close(ac.done)
		if s.asyncIdle.Add(1) > maxIdleAsyncWorkers {
			s.asyncIdle.Add(-1)
			return
		}
		select {
		case ac = <-s.asyncq:
			s.asyncIdle.Add(-1)
		case <-s.stop:
			s.asyncIdle.Add(-1)
			return
		}
	}
}

// InvokeOneWay submits a fire-and-forget invocation: the member executes
// the method but sends no response, and the caller learns only whether the
// request was accepted toward a reachable member. The invocation is
// at-most-once, and that governs failover too: only failures that
// guarantee nothing was submitted (dial errors, connections already known
// dead) are retried on other members. A write that fails mid-flight is
// ambiguous — the member may have executed it — so it is never resubmitted;
// the member is dropped and the error surfaced.
func (s *Stub) InvokeOneWay(method string, payload []byte) error {
	if s.closed.Load() {
		return ErrPoolClosed
	}
	var lastErr error
	attempts := s.routes.Len() + 2
	for i := 0; i < attempts; i++ {
		addr, ok := s.pickFor("")
		if !ok {
			break
		}
		if i > 0 {
			s.staleRetries.Add(1)
		}
		c, err := s.conn(addr)
		if err == nil {
			werr := c.OneWay(s.name, method, payload)
			if werr == nil {
				s.routes.Readmit(addr)
				return nil
			}
			if errors.Is(werr, transport.ErrFrameTooLarge) {
				return werr // caller-side payload bug; no member can take it
			}
			if !errors.Is(werr, transport.ErrClosed) {
				// The frame may have reached the member before the failure;
				// resubmitting could execute the invocation twice.
				s.routes.Exclude(addr)
				s.conns.Drop(addr)
				return fmt.Errorf("core: %s.%s: one-way delivery uncertain: %w", s.name, method, werr)
			}
			err = werr // refused before submission: safe to try elsewhere
		} else if errors.Is(err, ErrPoolClosed) {
			return err
		}
		lastErr = err
		s.routes.Exclude(addr)
		s.conns.Drop(addr)
	}
	if lastErr == nil {
		lastErr = errors.New("core: no members left to try")
	}
	return fmt.Errorf("%w: %s.%s: %v", ErrUnavailable, s.name, method, lastErr)
}

// Future is the typed stub-level future the generated async stub variants
// return (the counterpart of Call for the asynchronous pipeline). Only
// GoCall builds one, so Reply is always a codec type.
type Future[Reply any] struct {
	ac   *AsyncCall
	once sync.Once
	rep  Reply
	into transport.Unmarshaler // &rep, through the codec GoCall was given
	err  error
}

// Get blocks until completion and returns the decoded reply. Repeated calls
// return the same result without re-decoding.
func (f *Future[Reply]) Get() (Reply, error) {
	f.once.Do(func() {
		f.err = f.ac.Decode(f.into)
	})
	return f.rep, f.err
}

// GoCall is the typed asynchronous counterpart of Call: it encodes the
// argument, starts the invocation and returns the typed future. The request
// buffer is not recycled — an abandoned future (Wait timeout) can leave the
// invocation queued past GoCall's lifetime, so the GC reclaims it instead.
func GoCall[Arg, Reply any, PA Payload[Arg], PR Payload[Reply]](s *Stub, method string, arg Arg) *Future[Reply] {
	f := &Future[Reply]{ac: s.InvokeAsync(method, transport.Encode(PA(&arg)))}
	f.into = PR(&f.rep)
	return f
}

// OneWayCall is the typed fire-and-forget counterpart of Call.
func OneWayCall[Arg any, PA Payload[Arg]](s *Stub, method string, arg Arg) error {
	return s.InvokeOneWay(method, transport.Encode(PA(&arg)))
}
