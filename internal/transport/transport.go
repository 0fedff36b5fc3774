package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Exported errors matched by callers with errors.Is.
var (
	// ErrClosed is returned for operations on a closed client or server.
	ErrClosed = errors.New("transport: closed")
	// ErrTimeout is returned when a call's deadline expires.
	ErrTimeout = errors.New("transport: call timed out")
	// ErrFrameTooLarge is returned when a message would exceed MaxFrame. The
	// connection stays usable; only the offending call fails.
	ErrFrameTooLarge = errors.New("transport: frame too large")
	// ErrOverloaded is returned when the server's admission controller shed
	// the call unexecuted (statusOverload): its concurrency gate and wait
	// queue were both full. The member is alive but saturated — callers
	// should treat it as loaded, not dead, and may retry elsewhere (the
	// method provably never ran).
	ErrOverloaded = errors.New("transport: server overloaded")
	// ErrExpired is returned when the call's remaining budget ran out while
	// it waited in the server's admission queue (statusExpired): the handler
	// was never invoked. Like a timeout, the budget is gone; unlike a
	// timeout, the server proved the method did not run.
	ErrExpired = errors.New("transport: budget expired before execution")
)

// RemoteError carries an application-level error string returned by the
// remote handler. It corresponds to the serialized exception a Java RMI
// skeleton would send back to the stub.
type RemoteError struct {
	Service string
	Method  string
	Msg     string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s.%s: %s", e.Service, e.Method, e.Msg)
}

// Request is a remote method invocation as it travels on the wire. The
// Payload handed to a server Handler lives in a pooled arena slab: it is
// valid until the request's response has been written (for one-way
// requests, until the handler returns), after which the server releases
// the slab for reuse. A handler that lets the payload — or a zero-copy
// view decoded from it — escape that window must call Retain first.
// Handlers must not mutate the payload (it is shared with the response
// write path when echoed back).
type Request struct {
	Seq uint64
	// Epoch is the routing epoch the caller held when it sent the request
	// (0 = none). A server with a RouteSource compares it against its own
	// table and piggybacks the newer table on the response, so stale
	// callers converge within one reply round-trip.
	Epoch   uint64
	Service string
	Method  string
	Payload []byte
	// Budget is the caller's remaining deadline budget when it sent the
	// request (0 = no deadline), carried on the wire in microseconds. The
	// server charges queue wait against it: work whose budget expires before
	// dequeue is dropped without invoking the handler.
	Budget time.Duration
	// Deadline is Budget anchored at the server's arrival clock (zero when
	// the request carries no budget). Handlers may consult it to abandon
	// work nobody is waiting for (e.g. skip a cache fill mid-call).
	Deadline time.Time
	// OneWay is set by the server for invocations that will never be
	// answered (one-way frames). There is no response to piggyback
	// corrections on, so handlers execute them with whatever routing the
	// caller chose.
	OneWay bool
	// ReleaseReply marks the handler's returned payload as transport-owned
	// arena memory (Encode output): the server releases it to the arena once
	// the response frame is written. A handler returning memory it does not
	// own outright — req.Payload echoed back, a long-lived application
	// buffer — must leave it false.
	ReleaseReply bool

	// pusher is the event-push handle of the connection this request arrived
	// on (nil for requests constructed outside a server connection). See
	// Pusher.
	pusher *Pusher

	// slab is the arena slab backing Payload, owned by this request alone.
	// See Retain.
	slab []byte
	// retained records Retain: the Request must not return to the pool while
	// decoded views alias its slab, so it is left to the GC with the slab.
	retained bool
}

// reqPool recycles server-side Request objects: one is checked out per
// parsed invocation and returned once the response is written (one-way
// work: once the handler returns), unless Retain detached it.
var reqPool = sync.Pool{New: func() interface{} { return new(Request) }}

// getRequest checks a zeroed Request out of the pool.
func getRequest() *Request {
	r := reqPool.Get().(*Request)
	r.Seq, r.Epoch = 0, 0
	r.Service, r.Method = "", ""
	r.Payload = nil
	r.Budget, r.Deadline = 0, time.Time{}
	r.OneWay, r.ReleaseReply, r.retained = false, false, false
	r.pusher = nil
	r.slab = nil
	return r
}

// Pusher returns the server-push handle of the connection this request
// arrived on, or nil when the request did not arrive over a server
// connection. The handle outlives the request (and may be stored by the
// handler — e.g. in a session table): it stays valid for the connection's
// lifetime and fails every Send once the connection is gone.
func (r *Request) Pusher() *Pusher { return r.pusher }

// Event is a server-initiated message pushed on an established connection
// (see the event frame in doc.go). Kind, Topic and Seq address the event at
// the application layer — the transport assigns no meaning to any of them
// (Seq is typically an acknowledgment token: the session layer above
// assigns it and the client echoes it back on its ack call).
type Event struct {
	Seq     uint64
	Kind    uint64
	Topic   string
	Payload []byte
}

// Retain detaches the request's payload from the transport's arena
// recycling: the slab is left to the garbage collector instead of being
// reused after the response is written. Handlers (or the decode layer
// above them) call it when the payload — or a zero-copy view into it, such
// as a []byte field decoded by a generated codec — outlives the request.
func (r *Request) Retain() {
	r.retained = true
}

// recycle returns the payload slab to the arena (unless Retain detached it)
// and the Request to the pool for the next parse. Called by the server once
// the response is written — or, for one-way work, once the handler returns.
// A retained Request stays out of the pool: the decoded views aliasing its
// slab keep both alive until the application drops them.
func (r *Request) recycle() {
	if r.retained {
		return
	}
	arenaPut(r.slab)
	r.slab = nil
	reqPool.Put(r)
}

// Handler processes one request and returns the response payload. Returning
// an error surfaces as a RemoteError at the caller.
type Handler func(req *Request) ([]byte, error)

// Marshaler is the encode half of a generated payload codec (ermi-gen's
// `//ermi:codec` output): SizeERMI returns the exact encoded size and
// MarshalERMI appends the encoding to b. Every payload type is annotated;
// there is no other encoding.
type Marshaler interface {
	SizeERMI() int
	MarshalERMI(b []byte) []byte
}

// Unmarshaler is the decode half of a generated payload codec.
// Implementations must be total on arbitrary input (returning an error,
// never panicking) and may alias b in []byte fields (zero-copy views) —
// such types also implement the ERMIViews marker so the transport's decode
// paths know the buffer escapes.
type Unmarshaler interface {
	UnmarshalERMI(b []byte) error
}

// viewer is the marker interface generated codecs implement when the
// decoded value may hold zero-copy views into the payload buffer.
type viewer interface{ ERMIViews() }

// holdsViews reports whether v's decoded form may alias the payload buffer
// it was decoded from (so the buffer must not be released after decode).
func holdsViews(v Unmarshaler) bool {
	_, ok := v.(viewer)
	return ok
}

// Encode marshals v into an exactly-sized payload buffer drawn from the
// transport's arena. It cannot fail. The buffer may be handed back with
// ReleasePayload after its last use (transport call paths that own the
// buffer do so themselves).
func Encode(v Marshaler) []byte {
	return v.MarshalERMI(arenaGet(v.SizeERMI())[:0])
}

// Decode unmarshals a payload produced by Encode into v. Codec types with
// []byte fields alias data (zero-copy views) — see ReleasePayload for the
// lifetime rules.
func Decode(data []byte, v Unmarshaler) error {
	if err := v.UnmarshalERMI(data); err != nil {
		return fmt.Errorf("decode payload: %w", err)
	}
	return nil
}
