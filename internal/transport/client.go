package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/route"
)

// Client is a connection to one Server. It is safe for concurrent use; calls
// are multiplexed over a single TCP connection, and the request frames of
// concurrent callers coalesce in the connection's write buffer (see
// connWriter).
type Client struct {
	conn    net.Conn
	w       *connWriter
	seq     atomic.Uint64
	epochFn func() uint64       // nil: requests stamped with epoch 0
	onRoute func(t route.Table) // nil: piggybacked route updates dropped
	onEvent func(ev Event)      // nil: server-push events dropped

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	closed  bool
	readErr error

	done chan struct{}
}

// Completer receives the outcome of a call started with Client.Start,
// exactly once and never before Start's write of the request has returned:
// on the read loop when the reply arrives, from the budget timer, from
// failAll when the connection dies, or on the caller's goroutine, before
// Start returns, when the request cannot be sent or its outcome was
// decided while the write was still under way. Complete must not block and
// must not call back into the Client. The payload, nil on error, is the
// receiver's (see ReleasePayload).
type Completer interface {
	Complete(payload []byte, err error)
}

// pendingCall is one started call awaiting its outcome, recycled through
// pendingPool. Whoever takes it out of Client.pending — the read loop,
// failAll, Start's failed write or the budget timer — decides the outcome,
// but delivers it only as the last party to leave: left counts the taker,
// Start while its write is under way, and the timer while armed. So the
// caller never sees an outcome while its request, payload and all, may
// still be written (a write can wait behind a flush to a stalled socket
// for longer than the budget), and a timer function still running for one
// call never touches the next call that reuses its pendingCall.
type pendingCall struct {
	c               *Client
	seq             uint64
	done            Completer
	service, method string
	// timer runs expire; made once with the pendingCall, reset per call
	// that has a budget.
	timer *time.Timer
	left  atomic.Int32
	out   []byte
	err   error
}

var pendingPool sync.Pool // *pendingCall, between calls

// getPending checks a pendingCall out of pendingPool, making one (with its
// timer) when the pool is empty.
func getPending() *pendingCall {
	if p, ok := pendingPool.Get().(*pendingCall); ok {
		return p
	}
	p := new(pendingCall)
	p.timer = time.AfterFunc(time.Hour, p.expire)
	p.timer.Stop()
	return p
}

// settle records the outcome of p, just taken out of the pending map.
func (p *pendingCall) settle(payload []byte, err error) {
	p.out, p.err = payload, err
	if p.timer.Stop() {
		p.leave(2) // the timer will never run
	} else {
		p.leave(1) // unarmed, or expire is running and leaves itself
	}
}

// expire runs when p's budget is spent: it times the call out, unless
// another party took it first.
func (p *pendingCall) expire() {
	c := p.c
	c.mu.Lock()
	taken := c.pending[p.seq] == p
	if taken {
		delete(c.pending, p.seq)
	}
	c.mu.Unlock()
	if !taken {
		p.leave(1)
		return
	}
	p.out, p.err = nil, fmt.Errorf("%s.%s: %w", p.service, p.method, ErrTimeout)
	p.leave(2)
}

// leave ends n parties' part in p; the last one out delivers the outcome.
func (p *pendingCall) leave(n int32) {
	if p.left.Add(-n) != 0 {
		return
	}
	done, out, err := p.done, p.out, p.err
	p.c, p.done, p.out, p.err = nil, nil, nil, nil
	pendingPool.Put(p)
	done.Complete(out, err)
}

// callResult is a response frame as the read loop parses it.
type callResult struct {
	payload []byte
	status  respStatus   // statusOK, or an admission-control refusal
	errMsg  string       // non-empty => RemoteError
	route   *route.Table // piggybacked route update, handed to onRoute
}

// asError translates the parsed response of service.method into the
// caller-visible error. The status switch is exhaustive over respStatus
// (enforced by ermi-vet): a new refusal status must decide here what
// callers see, or the build goes red — it cannot silently fall through to
// "success".
func (r *callResult) asError(service, method string) error {
	switch r.status {
	case statusOverload:
		return fmt.Errorf("%s.%s: %w", service, method, ErrOverloaded)
	case statusExpired:
		// The budget ran out before the handler ran: to the caller that is
		// a timeout, one the server proved left nothing executed.
		return fmt.Errorf("%s.%s: %w: %w", service, method, ErrExpired, ErrTimeout)
	case statusOK:
		if r.errMsg != "" {
			return &RemoteError{Service: service, Method: method, Msg: r.errMsg}
		}
	}
	return nil
}

// outcome is what a Completer receives.
type outcome struct {
	payload []byte
	err     error
}

// waiter is Call's Completer: a one-slot channel, made once and pooled in
// callPool. A started call completes exactly once and its caller receives
// that one outcome, so the channel is empty whenever it goes back to the
// pool.
type waiter chan outcome

// Complete implements Completer. The slot is free: one delivery per call.
func (w waiter) Complete(payload []byte, err error) { w <- outcome{payload, err} }

var callPool = sync.Pool{New: func() any { return make(waiter, 1) }}

// Dial connects to a Server at addr with default options.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, DialOptions{})
}

// DialOptions configures a client connection.
type DialOptions struct {
	// Timeout bounds the TCP dial (<= 0: 5s).
	Timeout time.Duration
	// Epoch, when non-nil, supplies the routing epoch stamped on every
	// outgoing request (typically route.State.Epoch of the owning stub).
	Epoch func() uint64
	// OnRouteUpdate, when non-nil, receives every route table piggybacked
	// on a response, before the response is delivered to its caller. It
	// runs on the read loop and must not block.
	OnRouteUpdate func(t route.Table)
	// OnEvent, when non-nil, receives every server-push event frame (see
	// Event). It runs on the read loop — it must not block, and the event's
	// Payload is only valid for the duration of the call (copy what
	// outlives it). A client without a handler drops events silently.
	OnEvent func(ev Event)
}

// DialOpts connects with the full option surface.
func DialOpts(addr string, opts DialOptions) (*Client, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // the writer already coalesces; don't add Nagle latency
	}
	c := &Client{
		conn:    conn,
		w:       newConnWriter(conn),
		epochFn: opts.Epoch,
		onRoute: opts.OnRouteUpdate,
		onEvent: opts.OnEvent,
		pending: make(map[uint64]*pendingCall),
		done:    make(chan struct{}),
	}
	// The preamble rides in the write buffer until the first frame flushes,
	// so it costs no extra syscall.
	c.w.bw.Write(preamble[:])
	go c.readLoop()
	return c, nil
}

// epoch returns the routing epoch to stamp on an outgoing request.
func (c *Client) epoch() uint64 {
	if c.epochFn == nil {
		return 0
	}
	return c.epochFn()
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.conn, connBufSize)
	for {
		kind, meta, payload, err := readFrame(br)
		if err != nil {
			c.failAll(err)
			return
		}
		// Exhaustive over frameKind (enforced by ermi-vet): a kind added to
		// the protocol must choose its client-side fate here explicitly.
		switch kind {
		case frameEvent:
			var ev Event
			if perr := parseEvent(meta, payload, &ev); perr != nil {
				arenaPut(meta)
				arenaPut(payload)
				c.failAll(perr)
				return
			}
			if c.onEvent != nil {
				c.onEvent(ev)
			}
			// The topic views the metadata slab and the payload is its own
			// slab: both are done once the handler returns (it copies what
			// it keeps); a handlerless client just drops the event.
			arenaPut(meta)
			arenaPut(payload)
			continue
		case frameRequest, frameOneWay:
			// Client-to-server kinds arriving at a client: the peer is not
			// speaking our side of the protocol, so kill the connection.
			arenaPut(meta)
			arenaPut(payload)
			c.failAll(fmt.Errorf("transport: protocol violation: frame kind %d", kind))
			return
		case frameResponse:
			// Falls through to the response path below.
		}
		var res callResult
		seq, err := parseResponse(meta, payload, &res)
		// The metadata slab is done the moment parsing returns: strings and
		// route tables were copied out. The payload slab's ownership travels
		// with the delivered result.
		arenaPut(meta)
		if err != nil {
			arenaPut(payload)
			c.failAll(err)
			return
		}
		if res.route != nil && c.onRoute != nil {
			// Install the piggybacked table before completing the call, so
			// a caller that fails over immediately after an error sees the
			// corrected view rather than re-picking from the stale one.
			c.onRoute(*res.route)
		}
		p := c.take(seq)
		if p == nil {
			// A response for an unknown seq was abandoned: the call's
			// budget timer took its pending entry first; recycle it.
			arenaPut(payload)
			continue
		}
		if err := res.asError(p.service, p.method); err != nil {
			arenaPut(res.payload)
			p.settle(nil, err)
		} else {
			p.settle(res.payload, nil)
		}
	}
}

// failAll delivers a connection-level failure to every pending call and
// poisons the client for future calls.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	pend := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	lost := fmt.Errorf("transport: connection lost: %w", ErrClosed)
	for _, p := range pend {
		p.settle(nil, lost)
	}
}

// take removes seq from the pending map and returns its call, or nil when
// another party took it first.
func (c *Client) take(seq uint64) *pendingCall {
	c.mu.Lock()
	p := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	return p
}

// OneWay invokes service.method without waiting for — or the server ever
// sending — a response frame. Delivery is at-most-once: a connection
// failure after submission loses the invocation silently, which is the
// contract of a one-way call. No call object is allocated or pooled.
func (c *Client) OneWay(service, method string, payload []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		// Wrap ErrClosed: nothing was submitted, so callers (stub failover)
		// can distinguish this from an ambiguous post-write failure and
		// safely resubmit elsewhere.
		return fmt.Errorf("transport: connection failed: %v: %w", err, ErrClosed)
	}
	c.mu.Unlock()
	if err := c.w.writeRequest(frameOneWay, 0, c.epoch(), 0, service, method, payload); err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return nil
}

// Start writes a request for service.method and has done receive its
// outcome. It is the transport's one invocation primitive: Call is Start
// plus a wait. A positive budget bounds the call: the budget travels on
// the wire, so the server drops the work unexecuted if it expires before
// a worker picks it up, and once it is spent done receives ErrTimeout.
// budget <= 0 means none. The request frame is flushed unless another
// writer is queued behind it (which then flushes both), and the payload is
// copied into the connection buffer, or written to the kernel, before
// Start returns: concurrent callers on one connection are how requests
// are pipelined.
func (c *Client) Start(service, method string, payload []byte, budget time.Duration, done Completer) {
	p := getPending()
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := ErrClosed
		if !c.closed {
			err = fmt.Errorf("transport: connection failed: %w", c.readErr)
		}
		c.mu.Unlock()
		pendingPool.Put(p)
		done.Complete(nil, err)
		return
	}
	seq := c.seq.Add(1)
	p.c, p.seq, p.done, p.service, p.method = c, seq, done, service, method
	c.pending[seq] = p
	// The taker and this write are parties from the start; the timer is
	// armed under c.mu, so expire cannot look for the entry before it is
	// registered.
	if budget > 0 {
		p.left.Store(3)
		p.timer.Reset(budget)
	} else {
		p.left.Store(2)
	}
	c.mu.Unlock()

	if err := c.w.writeRequest(frameRequest, seq, c.epoch(), budgetMicros(budget), service, method, payload); err != nil {
		// Unless another party took the call first (the read loop on
		// connection loss, or the timer), in which case its outcome stands.
		if q := c.take(seq); q != nil {
			q.settle(nil, fmt.Errorf("transport: write: %w", err))
		}
	}
	p.leave(1) // the write is done with payload; an outcome decided meanwhile goes out now
}

// Call invokes service.method with the given payload and waits up to timeout
// for the response payload. timeout <= 0 means wait indefinitely; a
// positive timeout is the call's budget (see Start), so a timed-out caller
// never leaves zombie work running remotely.
func (c *Client) Call(service, method string, payload []byte, timeout time.Duration) ([]byte, error) {
	done := callPool.Get().(waiter)
	c.Start(service, method, payload, timeout, done)
	res := <-done
	callPool.Put(done)
	return res.payload, res.err
}

// CallDecode is the typed convenience around Call: it encodes arg, invokes
// service.method and decodes the response payload into reply. A nil arg
// sends an empty payload; a nil reply discards the response payload.
// CallDecode manages the payload arena end to end: the request buffer is
// released once the call completes and the response buffer after decoding
// (unless reply's type holds zero-copy views into it).
func (c *Client) CallDecode(service, method string, arg Marshaler, reply Unmarshaler, timeout time.Duration) error {
	var payload []byte
	if arg != nil {
		payload = Encode(arg)
	}
	out, err := c.Call(service, method, payload, timeout)
	// Call returned, so the request bytes are written: the encode buffer is
	// reusable.
	arenaPut(payload)
	if err != nil {
		return err
	}
	return DecodeReply(out, reply)
}

// Close tears down the connection. Outstanding calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
