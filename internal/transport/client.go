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
	pending map[uint64]chan callResult
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

// asError translates the delivered result of service.method into the
// caller-visible error. The status switch is exhaustive over respStatus
// (enforced by ermi-vet): a new refusal status must decide here what
// callers see, or the build goes red — it cannot silently fall through to
// "success".
func (r *callResult) asError(service, method string) error {
	if r.err != nil {
		return r.err
	}
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

// callPool holds the pending state of a call: a one-slot result channel,
// made once and reused. A checkout is registered in Client.pending under
// its seq, whoever removes the entry (the read loop or failAll) delivers
// exactly one result, and the one caller receives it — so the channel is
// empty whenever it goes back to the pool.
var callPool = sync.Pool{New: func() any { return make(chan callResult, 1) }}

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
		pending: make(map[uint64]chan callResult),
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
		c.mu.Lock()
		done, ok := c.pending[seq]
		if ok {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
		if ok {
			done <- res
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
	c.pending = make(map[uint64]chan callResult)
	c.mu.Unlock()
	res := callResult{err: fmt.Errorf("transport: connection lost: %w", ErrClosed)}
	for _, done := range pend {
		done <- res
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

// Call invokes service.method with the given payload and waits up to timeout
// for the response payload. timeout <= 0 means wait indefinitely. A positive
// timeout doubles as the call's deadline budget on the wire: the server
// drops the work unexecuted if the budget expires before a worker picks it
// up, so a timed-out caller never leaves zombie work running remotely. The
// request frame is flushed unless another writer is queued behind it (which
// then flushes both), and the payload is copied into the connection buffer,
// or written to the kernel, before Call waits: concurrent callers on one
// connection are how requests are pipelined.
func (c *Client) Call(service, method string, payload []byte, timeout time.Duration) ([]byte, error) {
	seq := c.seq.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: connection failed: %w", err)
	}
	done := callPool.Get().(chan callResult)
	c.pending[seq] = done
	c.mu.Unlock()

	if err := c.w.writeRequest(frameRequest, seq, c.epoch(), budgetMicros(timeout), service, method, payload); err != nil {
		// Fail unless the read loop got there first (connection loss), in
		// which case its result is on the way and stands.
		if c.reclaim(seq) {
			callPool.Put(done)
			return nil, fmt.Errorf("transport: write: %w", err)
		}
	}
	res, ok := c.wait(seq, done, timeout)
	callPool.Put(done)
	if !ok {
		return nil, fmt.Errorf("%s.%s: %w", service, method, ErrTimeout)
	}
	if err := res.asError(service, method); err != nil {
		return nil, err
	}
	return res.payload, nil
}

// wait receives the result for seq on done, giving up after timeout
// (<= 0: never). A caller that gives up reclaims its pending entry, or, when
// the read loop checked it out first, drains the delivery already on its
// way, so done is empty again either way.
func (c *Client) wait(seq uint64, done chan callResult, timeout time.Duration) (callResult, bool) {
	if timeout <= 0 {
		return <-done, true
	}
	timer, ok := timerPool.Get().(*time.Timer)
	if ok {
		timer.Reset(timeout)
	} else {
		timer = time.NewTimer(timeout)
	}
	select {
	case res := <-done:
		timer.Stop() // go1.23 timers: a stopped timer never delivers later
		timerPool.Put(timer)
		return res, true
	case <-timer.C:
		timerPool.Put(timer) // already fired; Reset on reuse rearms it
		if !c.reclaim(seq) {
			arenaPut((<-done).payload)
		}
		return callResult{}, false
	}
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
