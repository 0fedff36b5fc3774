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
// are multiplexed over a single TCP connection, and concurrent or pipelined
// invocations coalesce in the connection's write buffer (see Go).
type Client struct {
	conn    net.Conn
	w       *connWriter
	seq     atomic.Uint64
	epochFn func() uint64       // nil: requests stamped with epoch 0
	onRoute func(t route.Table) // nil: piggybacked route updates dropped
	onEvent atomic.Pointer[func(Event)]

	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool
	readErr error

	done chan struct{}
}

// callResult is the outcome of one call as delivered by the read loop (or by
// failAll when the connection dies).
type callResult struct {
	payload []byte
	status  respStatus   // statusOK, or an admission-control refusal
	errMsg  string       // non-empty => RemoteError
	route   *route.Table // piggybacked route update, handed to onRoute
	err     error        // transport-level failure
}

// Call is one in-flight invocation: the future returned by Go. Exactly one
// callResult is ever delivered per checkout (by whoever removes the entry
// from Client.pending), closing done; the object is pooled, so after
// Release (or Wait, which releases) the Call must not be touched again.
type Call struct {
	c       *Client
	service string
	method  string
	seq     uint64
	res     callResult
	done    chan struct{}
}

var callPool = sync.Pool{New: func() interface{} { return new(Call) }}

// newCall checks a Call out of the pool. The done channel is fresh per
// checkout: completion closes it, and a closed channel cannot be reused.
func newCall(c *Client, service, method string, seq uint64) *Call {
	ca := callPool.Get().(*Call)
	ca.c = c
	ca.service, ca.method, ca.seq = service, method, seq
	ca.res = callResult{}
	ca.done = make(chan struct{})
	return ca
}

// deliver completes the call. The pending-map checkout discipline guarantees
// it runs at most once per checkout.
func (ca *Call) deliver(res callResult) {
	ca.res = res
	close(ca.done)
}

// Done returns a channel closed when the call completes (successfully or
// not). It is selectable alongside other futures. Done itself does not
// flush a held request frame onto the wire — capturing the channel early
// is cheap — so a caller that only ever selects on Done may wait out the
// connection's straggler bound (100µs); the blocking accessors (Err,
// Payload, Decode, Wait) flush immediately.
func (ca *Call) Done() <-chan struct{} {
	return ca.done
}

// err translates the delivered result into the caller-visible error. The
// status switch is exhaustive over respStatus (enforced by ermi-vet): a new
// refusal status must decide here what callers see, or the build goes red —
// it cannot silently fall through to "success".
func (ca *Call) err() error {
	if ca.res.err != nil {
		return ca.res.err
	}
	switch ca.res.status {
	case statusOverload:
		return fmt.Errorf("%s.%s: %w", ca.service, ca.method, ErrOverloaded)
	case statusExpired:
		// The budget ran out before the handler ran: to the caller that is
		// a timeout, one the server proved left nothing executed.
		return fmt.Errorf("%s.%s: %w: %w", ca.service, ca.method, ErrExpired, ErrTimeout)
	case statusOK:
		if ca.res.errMsg != "" {
			return &RemoteError{Service: ca.service, Method: ca.method, Msg: ca.res.errMsg}
		}
	}
	return nil
}

// Err blocks until the call completes and returns its error (nil on
// success).
func (ca *Call) Err() error {
	ca.c.w.flushHeld()
	<-ca.done
	return ca.err()
}

// Payload blocks until the call completes and returns the raw response
// payload.
func (ca *Call) Payload() ([]byte, error) {
	ca.c.w.flushHeld()
	<-ca.done
	if err := ca.err(); err != nil {
		return nil, err
	}
	return ca.res.payload, nil
}

// Decode blocks until the call completes and decodes the response payload
// into reply (see transport.Decode). A nil reply
// discards the payload. Unless reply's type holds zero-copy views into the
// buffer (ERMIViews), the payload is released back to the transport arena —
// the caller must not touch it (or call Payload) afterwards.
func (ca *Call) Decode(reply Unmarshaler) error {
	out, err := ca.Payload()
	if err != nil {
		return err
	}
	if reply == nil {
		ca.res.payload = nil
		arenaPut(out)
		return nil
	}
	err = Decode(out, reply)
	if !holdsViews(reply) {
		ca.res.payload = nil
		arenaPut(out)
	}
	return err
}

// Release returns the call object to the pool. An incomplete call is
// abandoned first: its pending entry is reclaimed (or the imminent result
// drained), so the pooled object is always quiescent. The Call must not be
// used after Release.
func (ca *Call) Release() {
	if ca.done == nil {
		return // already released (programmer error; keep it non-fatal)
	}
	select {
	case <-ca.done:
	default:
		if ca.c.reclaim(ca.seq) {
			// We won the race: no result will ever arrive. Complete the
			// call ourselves so concurrent Done waiters unblock.
			ca.deliver(callResult{err: fmt.Errorf("%s.%s: call abandoned: %w", ca.service, ca.method, ErrClosed)})
		} else {
			// The read loop checked the entry out first; its delivery is
			// imminent. Wait for it so the pooled object is quiescent.
			<-ca.done
		}
	}
	ca.c = nil
	ca.res = callResult{}
	ca.done = nil
	callPool.Put(ca)
}

// Wait blocks until the call completes or timeout elapses (timeout <= 0
// waits indefinitely), returns the response payload and releases the call
// object. The Call must not be used after Wait returns.
func (ca *Call) Wait(timeout time.Duration) ([]byte, error) {
	ca.c.w.flushHeld()
	var timer *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		select {
		case <-ca.done: // already complete: skip the timer entirely
		default:
			if t, ok := timerPool.Get().(*time.Timer); ok {
				t.Reset(timeout)
				timer = t
			} else {
				timer = time.NewTimer(timeout)
			}
			expired = timer.C
		}
	}
	select {
	case <-ca.done:
		if timer != nil {
			if !timer.Stop() {
				// Pre-go1.23 timer semantics could leave the fired value
				// buffered; drain so a pooled timer can never satisfy a
				// later call's deadline instantly.
				select {
				case <-timer.C:
				default:
				}
			}
			timerPool.Put(timer)
		}
		payload := ca.res.payload
		err := ca.err()
		ca.Release()
		if err != nil {
			return nil, err
		}
		return payload, nil
	case <-expired:
		timerPool.Put(timer) // already fired; Reset on reuse rearms it
		service, method := ca.service, ca.method
		ca.Release()
		return nil, fmt.Errorf("%s.%s: %w", service, method, ErrTimeout)
	}
}

var timerPool sync.Pool // *time.Timer, stopped

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
	// outlives it). A client without a handler drops events silently. The
	// handler can also be (re)installed after dial with SetEventHandler.
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
		pending: make(map[uint64]*Call),
		done:    make(chan struct{}),
	}
	if opts.OnEvent != nil {
		fn := opts.OnEvent
		c.onEvent.Store(&fn)
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

// SetEventHandler installs (or, with nil, removes) the server-push event
// handler. Safe to call while the client runs; the same contract as
// DialOptions.OnEvent applies (runs on the read loop, must not block,
// Payload valid only during the call).
func (c *Client) SetEventHandler(fn func(Event)) {
	if fn == nil {
		c.onEvent.Store(nil)
		return
	}
	c.onEvent.Store(&fn)
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
			perr := parseEvent(meta, payload, &ev)
			arenaPut(meta)
			if perr != nil {
				arenaPut(payload)
				c.failAll(perr)
				return
			}
			if fn := c.onEvent.Load(); fn != nil {
				(*fn)(ev)
			}
			// The payload slab is done once the handler returns (it copies
			// what it keeps); a handlerless client just drops the event.
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
		c.mu.Lock()
		ca, ok := c.pending[seq]
		if ok {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
		if ok {
			ca.deliver(res)
		} else {
			// A response for an unknown seq was abandoned by a timed-out
			// caller that reclaimed its pending entry first; recycle it.
			arenaPut(payload)
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
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	res := callResult{err: fmt.Errorf("transport: connection lost: %w", ErrClosed)}
	for _, ca := range pend {
		ca.deliver(res)
	}
}

// reclaim removes seq from the pending map. It reports whether the caller
// won the race: true means no result will ever be delivered for this call,
// false means the read loop (or failAll) already checked the entry out and
// delivery is imminent.
func (c *Client) reclaim(seq uint64) bool {
	c.mu.Lock()
	_, present := c.pending[seq]
	if present {
		delete(c.pending, seq)
	}
	c.mu.Unlock()
	return present
}

// Go starts an asynchronous invocation of service.method and returns its
// future. The returned Call always completes — pre-flight failures (closed
// or poisoned connections, write errors) are delivered through it. The
// request frame is held in the connection buffer, so a caller issuing a
// window of futures puts them on the wire in one syscall; it is flushed by
// the first blocking accessor (Wait, Err, Payload, Decode) on any future of
// the connection, by the buffer filling up, or after the connection's
// straggler bound at the latest. The payload is copied into the buffer (or
// written to the kernel, when large) before Go returns, so the caller may
// reuse it at once. Consume the result with Wait, or with Done/Err/Decode
// followed by Release.
func (c *Client) Go(service, method string, payload []byte) *Call {
	return c.goBudget(service, method, payload, 0, true)
}

// goBudget starts a call with a deadline budget stamped on the wire: the
// server charges queue wait against it and drops the work unexecuted
// (answering statusExpired) once it runs out, so an expired request never
// occupies a handler nobody is waiting for. budget <= 0 sends no deadline.
// hold leaves the request frame in the connection buffer (Go); without it
// the frame is flushed unless another writer is queued behind it (Call).
func (c *Client) goBudget(service, method string, payload []byte, budget time.Duration, hold bool) *Call {
	seq := c.seq.Add(1)
	ca := newCall(c, service, method, seq)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ca.deliver(callResult{err: ErrClosed})
		return ca
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		ca.deliver(callResult{err: fmt.Errorf("transport: connection failed: %w", err)})
		return ca
	}
	c.pending[seq] = ca
	c.mu.Unlock()

	if err := c.w.writeRequest(seq, c.epoch(), budgetMicros(budget), service, method, payload, hold); err != nil {
		// Deliver unless the read loop got there first (connection loss),
		// in which case its result stands.
		if c.reclaim(seq) {
			ca.deliver(callResult{err: fmt.Errorf("transport: write: %w", err)})
		}
	}
	return ca
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
	if err := c.w.writeOneWay(0, c.epoch(), 0, service, method, payload); err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return nil
}

// Call invokes service.method with the given payload and waits up to timeout
// for the response payload. timeout <= 0 means wait indefinitely. A positive
// timeout doubles as the call's deadline budget on the wire: the server
// drops the work unexecuted if the budget expires before a worker picks it
// up, so a timed-out caller never leaves zombie work running remotely.
func (c *Client) Call(service, method string, payload []byte, timeout time.Duration) ([]byte, error) {
	return c.goBudget(service, method, payload, timeout, false).Wait(timeout)
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
	if reply == nil {
		arenaPut(out)
		return nil
	}
	err = Decode(out, reply)
	if !holdsViews(reply) {
		arenaPut(out)
	}
	return err
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
