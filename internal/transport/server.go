package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/route"
)

// RouteSource supplies the server's current routing table. The server
// compares its epoch against each request's epoch and piggybacks the table
// on the response when the requester is stale, so clients converge within
// one reply round-trip. It is called on the response path and must be
// cheap and non-blocking (an atomic snapshot).
type RouteSource func() route.Table

// ServerOptions configures the server's admission controller. The zero
// value selects the defaults.
type ServerOptions struct {
	// MaxConcurrent bounds how many requests execute concurrently (the
	// concurrency gate): at most this many handler invocations run at any
	// moment. They run on an elastic pool of workers that park between
	// requests, so steady load reuses parked workers instead of starting
	// a goroutine per request; a worker is spawned only when none is
	// parked. <= 0 selects DefaultMaxConcurrent.
	MaxConcurrent int
	// MaxQueue bounds how many accepted requests may wait for a free worker.
	// When the queue is full, two-way requests are shed with a
	// statusOverload reply (the handler never runs; the caller retries on a
	// less-loaded member) and one-way requests are dropped silently (the
	// caller awaits no reply). <= 0 selects DefaultMaxQueue.
	MaxQueue int
	// Express selects requests that bypass the admission controller: a
	// matching request runs immediately, inline on its connection's read
	// loop, instead of waiting for — or being shed by — the worker pool. It
	// exists for cheap control-plane methods that UNBLOCK pool workers: a
	// handler parked in the pool waiting for a peer's follow-up call
	// deadlocks (until its own timeout) if that follow-up must be admitted
	// through the pool it is clogging. Express handlers must be fast and
	// must never block: while one runs, its connection reads nothing else.
	// They are exempt from MaxConcurrent/MaxQueue, so a method routed here
	// gains no overload protection. Nil disables the lane.
	Express func(service, method string) bool
}

// Default admission bounds: generous enough that well-provisioned workloads
// never notice them, finite so a saturated server degrades by shedding
// instead of by unbounded goroutine growth and congestion collapse.
const (
	DefaultMaxConcurrent = 1024
	DefaultMaxQueue      = 4096
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = DefaultMaxConcurrent
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	return o
}

// ServerStats are the admission controller's cumulative counters — the
// overload signal the elasticity layer scales on.
type ServerStats struct {
	// Shed counts requests refused because gate and queue were both full
	// (two-way: answered statusOverload; one-way: dropped).
	Shed uint64
	// Expired counts requests whose budget ran out waiting in the queue;
	// their handlers never ran.
	Expired uint64
}

// workItem is one admitted invocation waiting for a worker. st is nil for
// one-way work (no response is ever written).
type workItem struct {
	st     *connState
	req    *Request
	oneway bool
}

// Server accepts connections and dispatches requests to a Handler behind a
// bounded admission controller: a concurrency gate (elastic worker pool) in
// front of a bounded wait queue. Excess load is shed with statusOverload
// instead of accepted into unbounded goroutines, and queued work whose
// deadline budget expires is dropped without ever invoking the handler.
type Server struct {
	lis     net.Listener
	addr    string // lis.Addr().String(), computed once: Addr is on hot paths
	handler Handler
	opts    ServerOptions
	routes  atomic.Pointer[RouteSource]

	// Admission state: the bounded wait queue, the live-worker count the
	// concurrency gate caps, the worker accounting (see idle) and the
	// shed/expired counters.
	work    chan workItem
	workers atomic.Int32
	// idle is the number of workers waiting on the queue minus the queued
	// items no worker has been counted for yet. admit claims a parked
	// worker by decrementing it, a worker parks by incrementing it, and a
	// negative value is work owed by busy workers at MaxConcurrent: the
	// next to finish finds it on the queue without blocking.
	idle    atomic.Int32
	shed    atomic.Uint64
	expired atomic.Uint64
	// quit stops every worker at Close.
	quit chan struct{}

	// draining makes the server drop newly arriving requests without
	// executing them (see Quiesce): the unanswered request fails with the
	// connection when the server closes, so the caller retries on another
	// member knowing the method never ran here — at-most-once is preserved
	// through shutdown.
	draining atomic.Bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	states map[*connState]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SetRouteSource installs (or replaces) the server's route source. Safe to
// call while the server runs; a nil source disables piggybacking.
func (s *Server) SetRouteSource(src RouteSource) {
	if src == nil {
		s.routes.Store(nil)
		return
	}
	s.routes.Store(&src)
}

// routeUpdateFor returns the table to piggyback for a request carrying
// reqEpoch, or nil when the requester is already current (or no source).
func (s *Server) routeUpdateFor(reqEpoch uint64) *route.Table {
	srcp := s.routes.Load()
	if srcp == nil {
		return nil
	}
	t := (*srcp)()
	if t.Epoch <= reqEpoch {
		return nil
	}
	// Only the stale branch copies the table to the heap: returning &t
	// would move t there on every call, current requesters included.
	stale := t
	return &stale
}

// Stats returns the admission controller's cumulative counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Shed: s.shed.Load(), Expired: s.expired.Load()}
}

// Serve starts a server listening on addr ("host:port"; ":0" picks a free
// port) with default admission bounds.
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeOpts(addr, handler, ServerOptions{})
}

// ServeOpts is Serve with explicit admission bounds.
func ServeOpts(addr string, handler Handler, opts ServerOptions) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return ServeListener(lis, handler, opts)
}

// ServeListener serves on an already-created listener. It lets tests wrap
// the listener (e.g. ermitest's fault-injecting listener) and production
// callers bring their own socket configuration. The server owns lis and
// closes it on Close.
func ServeListener(lis net.Listener, handler Handler, opts ServerOptions) (*Server, error) {
	if handler == nil {
		lis.Close()
		return nil, errors.New("transport: nil handler")
	}
	opts = opts.withDefaults()
	s := &Server{
		lis:     lis,
		addr:    lis.Addr().String(),
		handler: handler,
		opts:    opts,
		work:    make(chan workItem, opts.MaxQueue),
		quit:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		states:  make(map[*connState]struct{}),
	}
	// The first worker parks on the admission queue before any request
	// arrives, so light sequential load never spawns a goroutine.
	s.workers.Store(1)
	s.idle.Store(1)
	s.wg.Add(2)
	go s.worker()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.addr }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// maxIdleWorkers caps the parked workers: a worker that finishes while
// this many others are parked retires, so a burst's workers do not linger
// once it is over. A retiring worker always leaves parked ones behind, so
// the pool never empties.
const maxIdleWorkers = 64

// admit hands one parsed invocation to the worker pool. It never blocks:
// a full queue reports false and the caller sheds. On true, the item is
// accounted to exactly one worker: a parked one it claims, a new one it
// spawns below MaxConcurrent, or — at MaxConcurrent — the next busy worker
// to finish. So below MaxConcurrent an admitted request never waits behind
// a busy handler.
func (s *Server) admit(it workItem) bool {
	select {
	case s.work <- it:
	default:
		return false
	}
	for {
		n := s.idle.Load()
		if n <= 0 && s.tryReserveWorker() {
			s.wg.Add(1)
			go s.worker()
			return true
		}
		// Claim a parked worker, or owe the item to a busy one.
		if s.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// tryReserveWorker claims a worker slot under the concurrency gate,
// reporting false when the pool is at MaxConcurrent.
func (s *Server) tryReserveWorker() bool {
	for {
		n := s.workers.Load()
		if int(n) >= s.opts.MaxConcurrent {
			return false
		}
		if s.workers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// worker runs admitted work: receive one item, process it, then park for
// the next or retire (see park). A worker only receives an item it was
// accounted for — spawned for it, claimed while parked, or owed it — so
// the number of parked workers stays exact.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case it := <-s.work:
			s.process(it)
		case <-s.quit:
			s.workers.Add(-1)
			return
		}
		if !s.park() {
			return
		}
	}
}

// park accounts a worker that finished an item as waiting again, or
// retires it when maxIdleWorkers others are already parked.
func (s *Server) park() bool {
	for {
		n := s.idle.Load()
		if n >= maxIdleWorkers {
			s.workers.Add(-1)
			return false
		}
		if s.idle.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// process runs one admitted invocation: the budget check at dequeue, then
// the handler, then (for two-way work) the response.
func (s *Server) process(it workItem) {
	req := it.req
	if !req.Deadline.IsZero() && time.Now().After(req.Deadline) {
		// The budget expired while the item sat in the queue: the caller is
		// gone, executing the method would be pure waste. Never invoke the
		// handler; tell a two-way caller so it can account the loss.
		s.expired.Add(1)
		if !it.oneway {
			s.reply(it.st, req, statusExpired, nil, "")
		} else {
			req.recycle()
		}
		return
	}
	if it.oneway {
		// The result, including any error, is dropped — the client asked
		// for no response frame. The payload slab is done once the handler
		// returns (unless it Retained).
		_, _ = s.handler(req)
		req.recycle()
		return
	}
	payload, err := s.handler(req)
	var errMsg string
	if err != nil {
		errMsg = err.Error()
	}
	s.reply(it.st, req, statusOK, payload, errMsg)
}

// reply writes one response frame — held in the connection buffer while
// more responses on this connection are due — and keeps the Quiesce
// accounting (outstanding/written) true.
func (s *Server) reply(st *connState, req *Request, status respStatus, payload []byte, errMsg string) {
	// The route update is computed after the handler ran: a view change
	// during a long invocation still reaches the caller on this reply.
	rt := s.routeUpdateFor(req.Epoch)
	hold := st.outstanding.Add(-1) > 0
	// A write error has closed the connection (see connWriter.fail).
	_ = st.w.writeResponse(req.Seq, status, payload, errMsg, rt, hold)
	// The response bytes are on their way (buffered or scatter-gathered to
	// the kernel), so nothing references the request's payload slab — or a
	// transport-owned reply buffer — any longer. Release both, even on a
	// write error: the slabs are clean either way.
	if req.ReleaseReply {
		arenaPut(payload)
	}
	req.recycle()
	st.written.Add(1)
}

// ingestRequest runs the per-request admission pipeline on the read path:
// draining drop, then the gate+queue, shedding with statusOverload when
// both are full.
func (s *Server) ingestRequest(st *connState, req *Request, arrival time.Time) {
	// Count before the draining check: Quiesce observes a non-zero
	// outstanding count for any request that slipped past the flag,
	// so it can never declare the connection quiet under our feet.
	st.outstanding.Add(1)
	st.accepted.Add(1)
	if s.draining.Load() {
		st.outstanding.Add(-1)
		st.written.Add(1)
		req.recycle()
		return // dropped unexecuted; fails with the connection
	}
	if req.Budget > 0 {
		req.Deadline = arrival.Add(req.Budget)
	}
	if s.express(req) {
		// Inline on the read loop: express handlers are sub-microsecond
		// and never block, so the lane needs no goroutine or closure.
		s.process(workItem{st: st, req: req})
		return
	}
	if !s.admit(workItem{st: st, req: req}) {
		// Gate and queue full: shed. The distinct status (not a RemoteError)
		// tells the stub the member is loaded, not broken.
		s.shed.Add(1)
		s.reply(st, req, statusOverload, nil, "")
	}
}

// express reports whether req takes the admission bypass lane.
func (s *Server) express(req *Request) bool {
	return s.opts.Express != nil && s.opts.Express(req.Service, req.Method)
}

// ingestOneWay routes a one-way invocation through the same admission gate.
// There is no caller to answer, so saturation and draining both drop the
// work silently — never an unbounded goroutine.
func (s *Server) ingestOneWay(req *Request, arrival time.Time) {
	if s.draining.Load() {
		req.recycle()
		return // at-most-once: dropped with the closing member
	}
	req.OneWay = true
	if req.Budget > 0 {
		req.Deadline = arrival.Add(req.Budget)
	}
	if s.express(req) {
		s.process(workItem{req: req, oneway: true}) // inline, as in ingestRequest
		return
	}
	if !s.admit(workItem{req: req, oneway: true}) {
		s.shed.Add(1)
		req.recycle()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, connBufSize)
	var pre [len(preamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != preamble {
		return // wrong magic or unsupported protocol version
	}
	st := &connState{w: newConnWriter(conn)}
	pusher := &Pusher{st: st}
	s.mu.Lock()
	s.states[st] = struct{}{}
	s.mu.Unlock()
	defer func() {
		st.closed.Store(true)
		s.mu.Lock()
		delete(s.states, st)
		s.mu.Unlock()
	}()
	in := newInterner()
	for {
		kind, meta, payload, err := readFrame(br)
		if err != nil {
			return
		}
		arrival := time.Now()
		switch kind {
		case frameRequest, frameOneWay:
			req, err := parseRequest(meta, payload, in)
			// The metadata slab is done once parsing returns (service and
			// method were interned out of it); the payload slab's ownership
			// moves to the request, released after its response is written.
			arenaPut(meta)
			if err != nil {
				arenaPut(payload)
				return
			}
			req.slab = payload
			req.pusher = pusher
			if kind == frameRequest {
				s.ingestRequest(st, req, arrival)
			} else {
				s.ingestOneWay(req, arrival)
			}
		case frameResponse, frameEvent:
			// Server-to-client kinds arriving at a server: the peer is not
			// speaking our side of the protocol, so drop the connection.
			// Named (not a default) so the switch stays exhaustive over
			// frameKind and ermi-vet forces a new kind to choose its fate.
			arenaPut(meta)
			arenaPut(payload)
			return
		}
	}
}

// Quiesce prepares a graceful shutdown: newly arriving requests are dropped
// without executing (their callers retry elsewhere once the connection
// closes), and Quiesce blocks until every previously accepted request has
// run AND had its response fully written — including responses parked under
// the flush-coalescing straggler hold, which are flushed here — or until
// timeout. It reports whether the server went quiet. Close may follow
// immediately without cutting an acknowledged-but-unflushed response, the
// ambiguity that would otherwise turn a clean scale-down into a duplicate
// execution at a retrying caller.
func (s *Server) Quiesce(timeout time.Duration) bool {
	s.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		quiet := true
		for st := range s.states {
			if st.outstanding.Load() != 0 || st.written.Load() != st.accepted.Load() {
				quiet = false
				break
			}
		}
		states := make([]*connState, 0, len(s.states))
		if quiet {
			for st := range s.states {
				states = append(states, st)
			}
		}
		s.mu.Unlock()
		if quiet {
			for _, st := range states {
				_ = st.w.flushNow()
			}
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Pusher pushes event frames to the client side of one server connection.
// Handlers obtain it via Request.Pusher and may hold it beyond the request:
// it stays valid for the connection's lifetime, and once the connection is
// gone every Send fails with ErrClosed — the holder's signal to drop
// whatever state (a session, a watch registration) the handle anchored.
// Safe for concurrent use; concurrent Sends serialize on the connection
// writer.
type Pusher struct {
	st *connState
}

// Send writes one event frame (kind, seq, topic, payload) to the client.
// The payload is copied onto the wire before Send returns; the caller keeps
// ownership of the slice. Events are never held for flush coalescing — a
// pushed invalidation is on its way to the kernel when Send returns.
func (p *Pusher) Send(kind, seq uint64, topic string, payload []byte) error {
	if p == nil || p.st.closed.Load() {
		return ErrClosed
	}
	if err := p.st.w.writeEvent(seq, kind, topic, payload); err != nil {
		return fmt.Errorf("transport: push event: %w", err)
	}
	return nil
}

// Closed reports whether the connection behind this pusher is gone (every
// further Send would fail).
func (p *Pusher) Closed() bool { return p == nil || p.st.closed.Load() }

// connState is the per-connection server state shared by the reader and the
// response writers: the writer itself plus the outstanding-request count
// driving response flush coalescing.
type connState struct {
	w *connWriter
	// closed is set when the connection's read loop exits; it fails event
	// pushes fast (response writes discover the death through their own
	// write errors).
	closed atomic.Bool
	// outstanding counts requests read but not yet answered. A responder
	// that is not the last one holds its flush — more responses are
	// imminent — so a wave of completions reaches the kernel in one
	// syscall; the writer's straggler timer bounds the wait when a
	// long-running handler keeps the count up.
	outstanding atomic.Int64
	// accepted counts every two-way request read on this connection;
	// written counts those whose response write has completed (or that
	// were dropped while draining). accepted == written && outstanding == 0
	// is the connection-quiet predicate Quiesce waits for.
	accepted atomic.Int64
	written  atomic.Int64
}

// Close stops accepting, closes all connections, waits for in-flight
// handlers and stops the worker pool behind the admission queue.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	close(s.quit)
	s.wg.Wait()
	// Every connection has stopped reading, so the queue only shrinks:
	// run what the stopped workers left behind, so admitted work is never
	// stranded at Close.
	for {
		select {
		case it := <-s.work:
			s.process(it)
		default:
			return err
		}
	}
}
