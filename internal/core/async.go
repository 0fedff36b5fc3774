package core

import "elasticrmi/internal/transport"

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

// InvokeAsync starts one remote method invocation and returns its future
// immediately. Semantics match Invoke: redirects are followed, failed
// members retried, application errors propagated verbatim; only the waiting
// moved off the caller.
func (s *Stub) InvokeAsync(method string, payload []byte) *AsyncCall {
	ac := &AsyncCall{done: make(chan struct{}), method: method, payload: payload}
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
