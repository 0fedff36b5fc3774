package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"elasticrmi/internal/route"
)

// MaxFrame bounds a single message (everything after the u32 length field)
// to protect against corrupt frames and unbounded buffering. Writers refuse
// larger frames before emitting any byte; readers treat them as a protocol
// violation.
const MaxFrame = 64 << 20

// Protocol preamble: magic "eRMI" plus a version byte, sent by the dialing
// side before its first frame (see doc.go). Version 2 added the epoch field
// on requests and the piggybacked route update on responses (replacing the
// redirect list of version 1). Version 3 added the remaining-budget field on
// requests, one-way frames and batch entries, and the status field on
// responses (statusOverload / statusExpired for admission-control refusals).
// Version 4 split every frame into a metadata section and a payload section
// whose length travels in the fixed header, so readers place the payload in
// an exactly-sized arena slab and writers emit large payloads by
// scatter-gather without copying them through the connection buffer.
// Version 5 added the event frame: a server-initiated message pushed on an
// established connection (the kvstore session layer's cache invalidations),
// reusing the metadata/payload split of version 4. Version 6 deleted the
// batch frame (kind 4) — concurrent and pipelined requests coalesce in the
// connection buffer instead — and renumbered the event frame from 5 to 4 so
// the declared kinds stay contiguous.
const protoVersion = 6

var preamble = [5]byte{'e', 'R', 'M', 'I', protoVersion}

// frameKind discriminates the frame types of the wire protocol. Every
// reader-side switch over it must stay exhaustive — a kind added here but
// missed by a reader would be dropped silently on one side of the
// connection — so the type carries the //ermi:exhaustive marker and
// ermi-vet flags any switch over it that neither names all kinds nor
// declares an explicit default (see doc.go, "Wire enums").
//
//ermi:exhaustive
type frameKind byte

const (
	frameRequest  frameKind = 1
	frameResponse frameKind = 2
	// frameOneWay is a request the server executes without sending any
	// response frame (fire-and-forget). Body shape is identical to a
	// request; the seq is carried for debugging but never answered.
	frameOneWay frameKind = 3
	// frameEvent is a server-initiated message on an established connection:
	// it answers no request and carries its own (kind, topic, seq) addressing
	// instead of a response seq. Clients dispatch events to the handler
	// installed at dial time; servers never accept one (events flow
	// server→client only).
	frameEvent frameKind = 4

	// frameMax bounds the kind byte: readFrame rejects frames outside
	// [frameRequest, frameMax] as malformed, so dispatch switches only
	// ever see declared kinds.
	frameMax = frameEvent
)

// frameHeaderSize is the fixed per-frame header after the u32 length field:
// one kind byte plus the u32 payload-section length.
const frameHeaderSize = 5

// respStatus is the status field of a response body. statusOK responses
// carry the handler's result (or its application error in errmsg); the
// other statuses are emitted by the server's admission controller and
// carry neither payload nor errmsg — the request's handler never ran.
// Like frameKind, the type is //ermi:exhaustive: client-side switches
// translating a status into a caller-visible error must name every member,
// so a new refusal status cannot be silently read as success.
//
//ermi:exhaustive
type respStatus byte

const (
	statusOK respStatus = 0
	// statusOverload: the admission queue was full when the request arrived;
	// the server shed it unexecuted. The member is alive but saturated —
	// callers should back off or prefer a less-loaded member, not declare
	// the member dead.
	statusOverload respStatus = 1
	// statusExpired: the request's remaining budget ran out while it waited
	// in the admission queue; the server dropped it without invoking the
	// handler (the caller's own deadline has passed, so the work is waste).
	statusExpired respStatus = 2

	statusMax = statusExpired // parser bound; larger values are malformed
)

// errMalformed kills a connection whose peer sent an unparseable frame.
var errMalformed = errors.New("transport: malformed frame")

// I/O buffer size per connection direction. Large enough to coalesce many
// small frames, small enough to be cheap per connection.
const connBufSize = 32 << 10

// scatterGatherThreshold selects the write path for a frame's payload
// section: payloads at or above it bypass the connection buffer entirely —
// the header+metadata scratch and the payload go to the kernel as one
// net.Buffers writev — instead of being copied through connBufSize-sized
// flushes. Half the connection buffer: anything larger would flush at least
// once mid-copy anyway.
const scatterGatherThreshold = 16 << 10

// sgEnabled gates the scatter-gather path (benchmarks toggle it to measure
// the writev saving in isolation).
var sgEnabled atomic.Bool

func init() { sgEnabled.Store(true) }

// uvarintLen returns the encoded size of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// connWriter serializes frame writes onto one connection through a buffered
// writer, and is the one place writes are coalesced, on both ends of a
// connection. A writer that observes other writers queued behind it leaves
// flushing to the last of them, so a burst of concurrent frames reaches the
// kernel in a single syscall. A frame written with hold (a server response
// while more are due on its connection) is left in the buffer even when
// nobody is queued; it is flushed by whichever comes first — a later
// unheld write, the buffer filling up, or the straggler timer, armed once
// per held window, stragglerBound later. Clients never hold.
// Write errors are sticky and close the connection (see fail). Large
// payloads skip the buffer: header+metadata are built in an arena scratch
// and handed to the kernel together with the payload as one scatter-gather
// write (net.Buffers → writev on TCP).
type connWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	dst     io.Writer // the raw connection, for scatter-gather writes
	waiters atomic.Int32
	err     error
	// owed is set when a writer skipped its flush because another was
	// queued: the queued writer inherits the flush even if it would hold,
	// so an unheld frame never waits on the straggler timer.
	owed bool
	// holding is set while held frames sit in the buffer. While it is set
	// the straggler timer is pending or its callback has yet to take the
	// lock, so a held frame waits at most stragglerBound. The timer's
	// callback reads it without the lock.
	holding atomic.Bool
	// straggler is created by the first held write, so a connection that
	// only ever writes unheld frames never allocates it.
	straggler *time.Timer
	// sg and sgBufs carry one scatter-gather write: net.Buffers.WriteTo
	// lets its receiver escape, so the writer owns both the slice array and
	// the Buffers header instead of building them per frame.
	sg     [2][]byte
	sgBufs net.Buffers
}

// stragglerBound caps how long a held frame — a server response parked
// behind still-running handlers on its connection — may sit in the
// connection buffer before it is flushed.
const stragglerBound = 100 * time.Microsecond

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{bw: bufio.NewWriterSize(w, connBufSize), dst: w}
}

// emit writes one fully built header+metadata scratch plus its payload
// section under the writer's lock, releases the scratch and settles the
// flush (see finish).
func (w *connWriter) emit(hdrMeta, payload []byte, hold bool) error {
	w.waiters.Add(1)
	w.mu.Lock()
	w.waiters.Add(-1)
	err := w.err
	if err == nil {
		err = w.writeFrame(hdrMeta, payload)
	}
	arenaPut(hdrMeta)
	return w.finish(err, hold)
}

// finish settles the flush for the frame just written and leaves the
// critical section: an owed or unheld frame flushes unless another writer
// is queued (which then owes the flush); a held frame stays buffered and
// arms the straggler timer if this opens a held window.
func (w *connWriter) finish(err error, hold bool) error {
	switch {
	case err != nil:
		w.fail(err)
	case hold && !w.owed:
		if w.bw.Buffered() > 0 && !w.holding.Load() {
			w.holding.Store(true)
			if w.straggler == nil {
				w.straggler = time.AfterFunc(stragglerBound, w.flushHeld)
			} else {
				w.straggler.Reset(stragglerBound)
			}
		}
	case w.waiters.Load() > 0:
		w.owed = true
	default:
		err = w.flush()
	}
	w.mu.Unlock()
	return err
}

// flush pushes the buffer to the kernel, settling every owed or held frame.
// Caller holds the lock.
func (w *connWriter) flush() error {
	w.owed = false
	w.holding.Store(false)
	err := w.bw.Flush()
	if err != nil {
		w.fail(err)
	}
	return err
}

// fail records the first write error and closes the connection: the
// stream may end mid-frame, and closing makes the reader fail every call
// still pending — held ones included — instead of leaving them to hang.
// Caller holds the lock.
func (w *connWriter) fail(err error) {
	if w.err == nil {
		w.err = err
		if c, ok := w.dst.(io.Closer); ok {
			c.Close()
		}
	}
}

// flushNow pushes any buffered frames to the kernel (a no-op on an empty
// buffer).
func (w *connWriter) flushNow() error {
	w.mu.Lock()
	err := w.err
	if err == nil {
		err = w.flush()
	}
	w.mu.Unlock()
	return err
}

// flushHeld flushes held frames, if any: the straggler timer's callback.
func (w *connWriter) flushHeld() {
	if w.holding.Load() {
		_ = w.flushNow() // a failure closed the connection (see fail)
	}
}

// writeSG emits a fully built header+metadata scratch and the payload as
// one gathered write to the raw connection: buffered frames are flushed
// first (ordering), then net.Buffers hands both slices to writev in a
// single syscall on TCP, so the payload is never copied into the
// connection buffer. Caller holds the lock.
func (w *connWriter) writeSG(hdrMeta, payload []byte) error {
	if err := w.flush(); err != nil {
		return err
	}
	w.sg = [2][]byte{hdrMeta, payload}
	w.sgBufs = w.sg[:]
	_, err := w.sgBufs.WriteTo(w.dst)
	// Drop the references, so the writer never pins a released slab.
	w.sg = [2][]byte{}
	w.sgBufs = nil
	return err
}

// writeFrame emits one fully built header+metadata scratch plus its payload
// section, choosing the scatter-gather path for large payloads. Caller
// holds the lock.
func (w *connWriter) writeFrame(hdrMeta, payload []byte) error {
	if len(payload) >= scatterGatherThreshold && sgEnabled.Load() {
		return w.writeSG(hdrMeta, payload)
	}
	_, err := w.bw.Write(hdrMeta)
	if err == nil && len(payload) > 0 {
		_, err = w.bw.Write(payload)
	}
	return err
}

// putFrameHeader writes the wire header into b[:9]: the u32 frame size (the
// byte count after the size field itself), the kind byte, and the u32
// payload-section length.
func putFrameHeader(b []byte, size int, kind frameKind, plen int) {
	binary.BigEndian.PutUint32(b[:4], uint32(size))
	b[4] = byte(kind)
	binary.BigEndian.PutUint32(b[5:9], uint32(plen))
}

// appendWireString appends a uvarint-length-prefixed string.
func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// budgetMicros converts a caller deadline budget to the wire's µs field,
// clamping negatives to zero (0 = no deadline).
func budgetMicros(budget time.Duration) uint64 {
	if budget <= 0 {
		return 0
	}
	return uint64(budget / time.Microsecond)
}

// requestMetaSize returns the metadata-section size of a request frame.
func requestMetaSize(seq, epoch, budget uint64, service, method string) int {
	return uvarintLen(seq) + uvarintLen(epoch) + uvarintLen(budget) +
		uvarintLen(uint64(len(service))) + len(service) +
		uvarintLen(uint64(len(method))) + len(method)
}

// writeRequest emits one request frame of kind frameRequest or frameOneWay
// (which the server never answers). The frame is flushed unless another
// writer is queued behind it (see connWriter); the payload is copied into
// the connection buffer, or written to the kernel, before writeRequest
// returns.
func (w *connWriter) writeRequest(kind frameKind, seq, epoch, budget uint64, service, method string, payload []byte) error {
	metaSize := requestMetaSize(seq, epoch, budget, service, method)
	size := frameHeaderSize + metaSize + len(payload)
	if size > MaxFrame {
		return fmt.Errorf("%w: request frame of %d bytes", ErrFrameTooLarge, size)
	}
	// Build header+metadata in arena scratch before taking the lock, so the
	// critical section is just the copy (or writev) to the connection.
	hm := arenaGet(9 + metaSize)
	putFrameHeader(hm, size, kind, len(payload))
	b := hm[:9]
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, budget)
	b = appendWireString(b, service)
	_ = appendWireString(b, method)
	return w.emit(hm, payload, false)
}

// maxEventTopic bounds the topic string of an event frame; writers refuse
// longer topics and readers treat them as malformed. Topics are keys or
// lock names — far shorter in practice.
const maxEventTopic = 4096

// eventMetaSize returns the metadata-section size of an event frame.
func eventMetaSize(seq, kind uint64, topic string) int {
	return uvarintLen(seq) + uvarintLen(kind) +
		uvarintLen(uint64(len(topic))) + len(topic)
}

// writeEvent emits one server-push event frame. Events are latency-critical
// (a write somewhere is blocked until the event's effect is acknowledged),
// so the frame is never held.
func (w *connWriter) writeEvent(seq, kind uint64, topic string, payload []byte) error {
	if len(topic) > maxEventTopic {
		return fmt.Errorf("%w: event topic of %d bytes", ErrFrameTooLarge, len(topic))
	}
	metaSize := eventMetaSize(seq, kind, topic)
	size := frameHeaderSize + metaSize + len(payload)
	if size > MaxFrame {
		return fmt.Errorf("%w: event frame of %d bytes", ErrFrameTooLarge, size)
	}
	hm := arenaGet(9 + metaSize)
	putFrameHeader(hm, size, frameEvent, len(payload))
	b := hm[:9]
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, kind)
	_ = appendWireString(b, topic)
	return w.emit(hm, payload, false)
}

// parseEvent decodes an event's metadata section into ev and attaches the
// payload section. Nothing is copied: the topic views meta and ev.Payload
// is the arena slab readFrame produced, so both stay valid only while the
// caller holds those slabs (see Event). Like every parser it is total on
// hostile input: malformed metadata returns errMalformed and never panics.
func parseEvent(meta, payload []byte, ev *Event) error {
	seq, rest, ok := takeUvarint(meta)
	if !ok {
		return errMalformed
	}
	kind, rest, ok := takeUvarint(rest)
	if !ok {
		return errMalformed
	}
	topic, rest, ok := takeBytes(rest)
	if !ok || len(rest) != 0 || len(topic) > maxEventTopic {
		return errMalformed
	}
	ev.Seq = seq
	ev.Kind = kind
	ev.Topic = unsafe.String(unsafe.SliceData(topic), len(topic))
	ev.Payload = payload
	return nil
}

// drainingFlag marks a draining member inside a route-update entry.
const drainingFlag = 0x1

// maxRouteMembers bounds the member count one route update may carry;
// writers refuse larger tables and readers treat larger counts as
// malformed. Far above any real pool size, far below an allocation bomb.
const maxRouteMembers = 4096

// Writer-side clamps. The parser rejects out-of-range fields as protocol
// violations (killing the connection), so the writer must never emit them:
// a RouteSource handing over an unconventional weight scale or a negative
// UID must degrade to a clamped value here, not poison every stale client.

// clampUID encodes a UID, flooring negatives at 0.
func clampUID(v int64) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// clampWeight bounds a weight to [0, route.DefaultWeight].
func clampWeight(v int32) uint64 {
	if v < 0 {
		return 0
	}
	if v > route.DefaultWeight {
		return route.DefaultWeight
	}
	return uint64(v)
}

// clampLoad floors a load at 0 (int32 range is within the parser's bound).
func clampLoad(v int32) uint64 {
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// routeUpdateSize returns the encoded size of the response's route-update
// section. A nil table encodes as the single byte 0 (epoch 0 = no update;
// real epochs start at 1).
func routeUpdateSize(rt *route.Table) int {
	if rt == nil {
		return uvarintLen(0)
	}
	size := uvarintLen(rt.Epoch) + uvarintLen(uint64(len(rt.Members)))
	for i := range rt.Members {
		m := &rt.Members[i]
		size += uvarintLen(uint64(len(m.Addr))) + len(m.Addr) +
			uvarintLen(clampUID(m.UID)) +
			uvarintLen(clampWeight(m.Weight)) +
			uvarintLen(clampLoad(m.Load)) + 1
	}
	return size
}

func appendRouteUpdate(b []byte, rt *route.Table) []byte {
	if rt == nil {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, rt.Epoch)
	b = binary.AppendUvarint(b, uint64(len(rt.Members)))
	for i := range rt.Members {
		m := &rt.Members[i]
		b = appendWireString(b, m.Addr)
		b = binary.AppendUvarint(b, clampUID(m.UID))
		b = binary.AppendUvarint(b, clampWeight(m.Weight))
		b = binary.AppendUvarint(b, clampLoad(m.Load))
		var flags byte
		if m.Draining {
			flags |= drainingFlag
		}
		b = append(b, flags)
	}
	return b
}

// responseMetaSize returns the metadata-section size of a response frame.
func responseMetaSize(seq uint64, status respStatus, errMsg string, rt *route.Table) int {
	return uvarintLen(seq) + uvarintLen(uint64(status)) +
		uvarintLen(uint64(len(errMsg))) + len(errMsg) +
		routeUpdateSize(rt)
}

// responseFrameSize returns the frame size (everything after the u32 length
// field) of a response.
func responseFrameSize(seq uint64, status respStatus, payload []byte, errMsg string, rt *route.Table) int {
	return frameHeaderSize + responseMetaSize(seq, status, errMsg, rt) + len(payload)
}

// writeResponse emits one response frame, piggybacking rt when non-nil (the
// member's routing table, newer than the requester's epoch). The server
// passes hold while more responses for this connection are imminent
// (outstanding requests), so a wave of completions reaches the kernel in
// one syscall (see connWriter). A payload at or above the scatter-gather
// threshold goes to the kernel immediately regardless of hold (it is never
// copied into the connection buffer).
func (w *connWriter) writeResponse(seq uint64, status respStatus, payload []byte, errMsg string, rt *route.Table, hold bool) error {
	if rt != nil && (len(rt.Members) == 0 || len(rt.Members) > maxRouteMembers || rt.Epoch == 0) {
		rt = nil // unencodable table: drop the piggyback, never the response
	}
	if responseFrameSize(seq, status, payload, errMsg, rt) > MaxFrame {
		// Surface the overflow to the caller as a RemoteError instead of
		// poisoning the connection with an unreadable frame.
		payload, rt = nil, nil
		errMsg = fmt.Sprintf("%v: response frame exceeds %d bytes", ErrFrameTooLarge, MaxFrame)
	}
	metaSize := responseMetaSize(seq, status, errMsg, rt)
	size := frameHeaderSize + metaSize + len(payload)
	hm := arenaGet(9 + metaSize)
	putFrameHeader(hm, size, frameResponse, len(payload))
	b := hm[:9]
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(status))
	b = appendWireString(b, errMsg)
	_ = appendRouteUpdate(b, rt)
	return w.emit(hm, payload, hold)
}

// readFrame reads one length-prefixed frame and returns its kind, metadata
// section and payload section. Both sections live in arena slabs owned by
// the caller: metadata is typically parsed and released immediately, while
// the payload slab's ownership travels with the decoded message (the
// payload slice starts at its slab's base, so ReleasePayload can recover
// the slab from the slice alone). The frame size is validated from the
// first four bytes before anything else is read, so a hostile declared
// length is rejected without allocation.
func readFrame(br *bufio.Reader) (frameKind, []byte, []byte, error) {
	// The 4-byte length prefix and 5-byte frame header are parsed in the
	// bufio window via Peek/Discard: a ReadFull into a local array would
	// force the array to the heap (it escapes through the io.Reader
	// parameter), costing two allocations per frame on the hot path. The
	// length is validated as soon as its 4 bytes arrive — before waiting
	// for the rest of the header — so a hostile declared size kills the
	// connection even when the peer stalls mid-header.
	lenPfx, perr := br.Peek(4)
	if len(lenPfx) < 4 {
		if perr == nil || (perr == io.EOF && len(lenPfx) > 0) {
			perr = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, perr
	}
	size := binary.BigEndian.Uint32(lenPfx)
	if size == 0 || size > MaxFrame {
		return 0, nil, nil, fmt.Errorf("transport: frame of %d bytes outside (0, %d]", size, MaxFrame)
	}
	if size < frameHeaderSize {
		return 0, nil, nil, errMalformed
	}
	hdr, perr := br.Peek(frameHeaderSize + 4)
	if len(hdr) < frameHeaderSize+4 {
		if perr == nil || perr == io.EOF {
			perr = io.ErrUnexpectedEOF
		}
		return 0, nil, nil, perr
	}
	kind := frameKind(hdr[4])
	if kind < frameRequest || kind > frameMax {
		// An undeclared kind is rejected here, before any section is read:
		// the dispatch switches downstream enumerate every declared kind
		// with no default, and this bound is what makes that total.
		return 0, nil, nil, errMalformed
	}
	plen := binary.BigEndian.Uint32(hdr[5:9])
	if _, err := br.Discard(frameHeaderSize + 4); err != nil {
		return 0, nil, nil, err
	}
	if uint64(plen) > uint64(size)-frameHeaderSize {
		return 0, nil, nil, errMalformed
	}
	meta := arenaGet(int(size) - frameHeaderSize - int(plen))
	if _, err := io.ReadFull(br, meta); err != nil {
		arenaPut(meta)
		return 0, nil, nil, err
	}
	var payload []byte
	if plen > 0 {
		payload = arenaGet(int(plen))
		if _, err := io.ReadFull(br, payload); err != nil {
			arenaPut(meta)
			arenaPut(payload)
			return 0, nil, nil, err
		}
	}
	return kind, meta, payload, nil
}

// interner deduplicates the service/method strings of one connection: a
// connection invokes a small, stable set of methods, so after the first
// occurrence every parse hits the map (whose string(b) lookup key never
// allocates) instead of allocating two fresh strings per request. Bounded
// so a hostile peer cycling through names cannot grow it without limit; a
// nil interner degrades to plain copies.
type interner struct {
	m map[string]string
}

const (
	internMaxEntries = 256
	internMaxLen     = 128
)

func newInterner() *interner {
	return &interner{m: make(map[string]string, 8)}
}

func (in *interner) intern(b []byte) string {
	if in == nil || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok { // compiler-optimized: no alloc for the key
		return s
	}
	s := string(b)
	if len(in.m) < internMaxEntries {
		in.m[s] = s
	}
	return s
}

// takeUvarint consumes a uvarint from b.
func takeUvarint(b []byte) (uint64, []byte, bool) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return x, b[n:], true
}

// takeBytes consumes a uvarint-length-prefixed byte string from b without
// copying.
func takeBytes(b []byte) ([]byte, []byte, bool) {
	n, rest, ok := takeUvarint(b)
	if !ok || n > uint64(len(rest)) {
		return nil, nil, false
	}
	return rest[:n], rest[n:], true
}

// parseRequest decodes a request's metadata section and attaches the
// payload section. Service and Method are interned (copied out of meta);
// Payload is the arena slab readFrame produced.
func parseRequest(meta, payload []byte, in *interner) (*Request, error) {
	seq, rest, ok := takeUvarint(meta)
	if !ok {
		return nil, errMalformed
	}
	epoch, rest, ok := takeUvarint(rest)
	if !ok {
		return nil, errMalformed
	}
	budget, rest, ok := takeUvarint(rest)
	if !ok {
		return nil, errMalformed
	}
	service, rest, ok := takeBytes(rest)
	if !ok {
		return nil, errMalformed
	}
	method, rest, ok := takeBytes(rest)
	if !ok || len(rest) != 0 {
		return nil, errMalformed
	}
	req := getRequest()
	req.Seq = seq
	req.Epoch = epoch
	req.Budget = clampBudget(budget)
	req.Service = in.intern(service)
	req.Method = in.intern(method)
	req.Payload = payload
	return req, nil
}

// clampBudget converts the wire's µs budget field into a duration, capping
// hostile values so arrival.Add(budget) cannot overflow time arithmetic.
func clampBudget(micros uint64) time.Duration {
	const maxBudget = uint64(24 * time.Hour / time.Microsecond)
	if micros > maxBudget {
		micros = maxBudget
	}
	return time.Duration(micros) * time.Microsecond
}

// parseResponse decodes a response's metadata section into res and attaches
// the payload section. The error string and any piggybacked route update
// are copied out of meta (they outlive the frame); res.payload is the arena
// slab readFrame produced.
func parseResponse(meta, payload []byte, res *callResult) (seq uint64, err error) {
	seq, rest, ok := takeUvarint(meta)
	if !ok {
		return 0, errMalformed
	}
	st, rest, ok := takeUvarint(rest)
	if !ok || st > uint64(statusMax) {
		return 0, errMalformed
	}
	res.status = respStatus(st)
	errMsg, rest, ok := takeBytes(rest)
	if !ok {
		return 0, errMalformed
	}
	if len(errMsg) > 0 {
		res.errMsg = string(errMsg)
	}
	repoch, rest, ok := takeUvarint(rest)
	if !ok {
		return 0, errMalformed
	}
	if repoch > 0 {
		count, rest2, ok := takeUvarint(rest)
		if !ok || count == 0 || count > maxRouteMembers || count > uint64(len(rest2)) {
			return 0, errMalformed
		}
		rest = rest2
		rt := &route.Table{Epoch: repoch, Members: make([]route.Member, 0, count)}
		for i := uint64(0); i < count; i++ {
			var addr []byte
			addr, rest, ok = takeBytes(rest)
			if !ok {
				return 0, errMalformed
			}
			var uid, weight, load uint64
			if uid, rest, ok = takeUvarint(rest); !ok {
				return 0, errMalformed
			}
			if weight, rest, ok = takeUvarint(rest); !ok {
				return 0, errMalformed
			}
			if load, rest, ok = takeUvarint(rest); !ok {
				return 0, errMalformed
			}
			if len(rest) == 0 {
				return 0, errMalformed
			}
			flags := rest[0]
			rest = rest[1:]
			if flags&^drainingFlag != 0 || uid > 1<<63-1 || weight > uint64(route.DefaultWeight) || load > 1<<31-1 {
				return 0, errMalformed
			}
			rt.Members = append(rt.Members, route.Member{
				Addr:     string(addr),
				UID:      int64(uid),
				Weight:   int32(weight),
				Load:     int32(load),
				Draining: flags&drainingFlag != 0,
			})
		}
		res.route = rt
	}
	if len(rest) != 0 {
		return 0, errMalformed
	}
	res.payload = payload
	return seq, nil
}
