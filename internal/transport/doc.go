// Package transport implements the wire protocol used by all ElasticRMI
// components: stubs and skeletons, the pool runtime's liveness pings and
// peer messages, the key-value store and the cluster manager tooling all
// exchange messages through it. It plays the role that JRMP (the Java RMI
// wire protocol) plays in the paper. A single client connection multiplexes
// concurrent calls; responses are matched to requests by sequence number.
//
// # Wire format (version 6)
//
// Framing is a hand-rolled binary codec: no reflection runs on the hot path.
// Application payloads — the opaque []byte a Request or Response carries —
// are produced by Encode and consumed by Decode through the generated
// per-type binary codecs (see "Payload encoding" below).
//
// A connection starts with a 5-byte preamble sent by the dialing side:
//
//	+-----+-----+-----+-----+---------+
//	| 'e' | 'R' | 'M' | 'I' | version |
//	+-----+-----+-----+-----+---------+
//
// The current protocol version is 6 (version 1 lacked the request epoch and
// piggybacked route updates and carried a redirect list on responses;
// version 2 lacked the request budget and the response status; version 3
// carried the payload inline in the body rather than in a separately-sized
// section; version 4 lacked the event frame; version 5 carried a batch
// frame as kind 4 and the event frame as kind 5). A server that reads a bad
// magic or an unknown version closes the
// connection before parsing any frame; mismatched peers fail fast at
// connection start rather than mid-stream. The preamble is buffered with the
// first request frame, costing no extra syscall.
//
// After the preamble the stream is a sequence of frames:
//
//	+----------------+------+-------------+------+---------+
//	| length (u32 BE)| kind | plen (u32 BE)| meta | payload |
//	+----------------+------+-------------+------+---------+
//
// length counts everything after itself (kind, plen, meta and payload) and
// must not exceed MaxFrame (64 MiB); oversized frames are rejected by the
// reader (killing the connection) and refused by the writer before any byte
// is written (failing only that call). kind is 1 for a request, 2 for a
// response, 3 for a one-way request, 4 for a server-pushed event; any
// other kind is malformed. plen is the
// size of the trailing payload section; the metadata section (the body
// fields below, minus the payload) fills the bytes in between. Carrying
// plen in the fixed header lets the reader land the payload directly in an
// exactly-sized arena slab and lets the writer emit large payloads by
// scatter-gather, without either side copying them through the connection
// buffer. All integers inside the metadata are unsigned varints
// (encoding/binary uvarint); strings and byte slices are length-prefixed
// with a uvarint.
//
// Request metadata (kind 1; the application payload is the frame's payload
// section):
//
//	seq      uvarint   // caller-chosen, echoed by the response
//	epoch    uvarint   // caller's routing epoch (0 = none); see below
//	budget   uvarint   // remaining deadline budget in µs (0 = none)
//	service  uvarint n, then n bytes
//	method   uvarint n, then n bytes
//
// budget is the caller's remaining deadline when the request was written —
// for a stub, what is left of the single per-invocation budget shared
// across failover attempts. The server anchors it at arrival time and
// charges queue wait against it: a request whose budget expires before a
// worker dequeues it is dropped without ever invoking the handler and
// answered with status 2 (expired). Handlers see the anchored deadline on
// Request.Deadline.
//
// Response metadata (kind 2; the result payload is the frame's payload
// section):
//
//	seq      uvarint   // matches the request
//	status   uvarint   // 0 = ok; 1 = overload; 2 = expired (see below)
//	errmsg   uvarint n, then n bytes   // n>0 => RemoteError at the caller
//	route    route update (see below); first uvarint 0 = absent
//
// status 0 carries the handler's result (or its application error in
// errmsg). status 1 (overload) means the server's admission controller shed
// the request unexecuted — gate and wait queue both full; the caller maps
// it to ErrOverloaded and should treat the member as loaded, not dead.
// status 2 (expired) means the request's budget ran out in the queue; the
// caller maps it to ErrExpired. Both refusal statuses carry neither payload
// nor errmsg, and both guarantee the handler never ran, so retrying
// elsewhere can never double-execute. Values above 2 are a protocol
// violation, reserving them for future use.
//
// # Wire enums
//
// The frame-kind byte (frameKind) and the response status (respStatus) are
// the protocol's two closed enums, and both carry the //ermi:exhaustive
// marker: ermi-vet (make lint) flags any switch over them that neither
// names every member nor declares an explicit default. readFrame bounds the
// kind byte to the declared range before dispatch, so together the bound
// and the marker guarantee that adding a fifth frame kind or a third
// refusal status is a compile-red event at every reader — each dispatch
// site must decide the new member's fate explicitly rather than dropping
// it in a silent default arm.
//
// Route update: the epoch-versioned membership view of the elastic pool
// (internal/route.Table), piggybacked by a server whose table is newer than
// the request's epoch — the in-band view dissemination that replaced the
// version-1 redirect protocol:
//
//	epoch    uvarint   // table epoch, >= 1 (0 means "no update follows")
//	count    uvarint   // 1..4096 members
//	members  count times:
//	  addr     uvarint n, then n bytes
//	  uid      uvarint
//	  weight   uvarint  // 0..100 relative share of steered invocations
//	  load     uvarint  // pending invocations at publication
//	  flags    1 byte   // bit 0: draining (serves, but take no new work)
//
// A stale client is thereby corrected on its very next reply round-trip:
// the client hands the table to its routing state (DialOptions.
// OnRouteUpdate), which installs it if the epoch is newer. Servers attach
// the update to every response status — success, error and refusal alike —
// so even a shed call re-synchronizes its caller. Requests carrying a
// current epoch cost one byte (the absent marker) on the response.
//
// One-way frames (kind 3) are identical in shape to a request. The server executes
// the invocation and sends no response frame of any kind; handler results
// and errors are dropped, and there is no reply to piggyback corrections
// on. The seq is carried for symmetry and debugging but is never echoed.
// One-way work passes through the same admission gate as requests; when the
// gate and queue are full it is dropped silently (the client awaits no
// reply), never parked on an unbounded goroutine.
//
// Event metadata (kind 4; the event payload is the frame's payload
// section): a server-initiated message on an established connection — the
// push half of a lease/invalidation protocol layered above the transport
// (e.g. the kvstore session layer's cache invalidations and flushes).
// Events flow server→client only; a client-sent event frame is a protocol
// violation that closes the connection. The server obtains a push handle
// from any request on the connection (Request.Pusher) and may hold it for
// the connection's lifetime:
//
//	seq      uvarint   // application-assigned token (e.g. echoed on an ack call)
//	kind     uvarint   // application-defined event discriminator
//	topic    uvarint n, then n bytes   // n <= 4096; e.g. the key being invalidated
//
// The transport assigns no meaning to any event field and promises only
// what TCP does: events written on one connection arrive in write order,
// but concurrent Pusher.Sends may interleave arbitrarily, so cross-event
// ordering is the application's problem (the session layer makes it a
// non-problem by allowing at most one outstanding invalidation per key per
// session). Events bypass admission control — they are server output, not
// inbound work — and the client dispatches them on its read loop to the
// DialOptions.OnEvent callback, which therefore must not block.
//
// A frame whose body is shorter or longer than its declared fields is a
// protocol violation and closes the connection. Unknown flag bits in a
// route-update member are a protocol violation, reserving
// them for future use; so are route updates with epoch 0 in disguise
// (member counts above 4096), out-of-range weights or loads, and response
// statuses above 2.
//
// # Admission control
//
// The server executes requests behind a bounded admission controller
// (ServerOptions): a concurrency gate of MaxConcurrent execution slots,
// fronted by a bounded wait queue of MaxQueue entries. The slots are an
// elastic pool of workers that park between requests: an admitted request
// is handed to a parked worker, a goroutine is spawned only when none is
// parked, and at most 64 stay parked once a burst is over. Below
// MaxConcurrent an admitted request never waits behind a busy handler.
// Work beyond both bounds is shed immediately: two-way requests with a
// status-1 response, one-way requests silently. Queued work is re-checked
// at dequeue: an expired budget means the handler never runs (status 2).
// Server.Stats exposes the cumulative shed/expired counters; the
// elasticity layer feeds them into PoolMetrics, where they act as the
// scale-out signal that fires before utilization averages cross their
// thresholds.
//
// Methods matched by ServerOptions.Express bypass the admission controller
// entirely and run inline on the connection's read loop — never queued,
// never shed, not counted against MaxConcurrent, and costing no goroutine
// or closure per request. The lane exists for cheap control-plane calls
// whose completion is what lets pool workers finish: the kvstore session
// layer routes its keepalives and invalidation acks here, since a write
// handler occupying a worker slot blocks exactly until the ack it is
// waiting for gets through. Express handlers must therefore be
// sub-microsecond and never block: while one runs its connection reads
// nothing else, so a slow method routed here stalls every call behind it
// on that connection.
//
// # Graceful shutdown
//
// Server.Quiesce prepares a member for removal: newly arriving requests are
// dropped without executing (their callers retry on a live member once the
// connection closes — the method provably never ran), and Quiesce blocks
// until every accepted request has been answered and flushed. Closing
// without quiescing can cut an acknowledged-but-unflushed response, which a
// retrying caller would turn into a duplicate execution.
//
// # Payload encoding
//
// Encode and Decode turn application argument/reply values into the opaque
// payload section and back. Every payload type is annotated //ermi:codec in
// its source and carries a generated binary codec (the ermi-gen
// preprocessor emits SizeERMI / MarshalERMI / UnmarshalERMI — the Marshaler
// and Unmarshaler interfaces here); there is no other encoding, so Encode
// takes a Marshaler and cannot fail, and an un-annotated type is a compile
// error. Encode sizes the value exactly, draws a slab of that size from the
// payload arena and marshals straight into it, with no reflection and no
// intermediate buffer.
//
// Payload memory is recycled through a size-classed arena (arena.go):
// fixed classes from 512 B to 8 MiB backed by bounded freelists, shared by
// both directions — the reader lands each frame's payload section in an
// exactly-sized slab, Encode draws response and argument buffers from the
// same classes, and ReleasePayload returns a slab once its last use has
// passed. The transport's own call paths (CallDecode, the generated stubs
// above them, the server's response writer via Request.ReleaseReply) release
// what they own; a payload that escapes — a decoded []byte view held beyond
// the call — is retained instead (Request.Retain on the server; on the
// client, reply types whose codecs mark them as view-holding, via the
// ERMIViews marker, skip the release and leave the slab to the GC).
//
// These ownership rules are checked mechanically: the ermi-vet suite
// (internal/lint, run by make lint) flags payload views escaping a handler
// without Retain, Encode output returned without ReleaseReply, and decoded
// views stored into long-lived memory without copying.
//
// Decoding through a generated codec is zero-copy for []byte fields: the
// field aliases the payload slab rather than copying out of it. Strings are
// copied (they routinely outlive the frame); integers travel as varints;
// the codec rejects malformed input rather than panicking, and trailing
// bytes after a valid value are an error.
//
// # Performance notes
//
// Both directions of a connection are buffered. Writers coalesce: a frame
// written while other writers are queued on the same connection skips the
// flush, so N concurrent calls can reach the kernel in one syscall; payload
// sections of 16 KiB and above bypass the connection buffer entirely and go
// to the kernel as one vectored write (net.Buffers → writev) together with
// the header and metadata. Framing allocates nothing on the write path; the
// read path parses the fixed header in place (Peek/Discard on the buffered
// reader) and lands the payload in a recycled arena slab. Server Request
// objects are pooled, each owning its payload slab, requests go to parked
// workers instead of new goroutines, a client call's pending state (with
// its budget timer) and Call's one-slot result channel are pooled, and
// sequence numbers come from an atomic counter: a steady-state 64-byte
// echo round trip allocates nothing (TestCallAllocsNothing).
//
// A client has one invocation primitive, Client.Start: it writes the
// request and registers a Completer, which receives the call's one
// outcome — from the read loop with the reply, from the call's budget
// timer, or from failAll when the connection dies. The pending call that
// carries the Completer is pooled with its timer, made once; whoever takes
// it out of the pending map decides the outcome, and the last to leave of
// that taker, Start's own write and a timer function already running
// delivers it, so no outcome reaches the caller while its request may
// still be written. Call is Start
// plus a wait on the pooled channel; the stub's invocations are Completers
// themselves, so the read loop completes them with no goroutine in
// between.
//
// A response may also be held: written into the buffer without a flush
// even when no other writer is queued. The server holds a response while
// more responses on its connection are due, so a wave of completions
// reaches the kernel in one syscall. A held frame is flushed by the next
// unheld write, by the buffer filling, or by the connection writer's
// straggler timer at most 100µs later. Client requests are never held:
// Client.Start writes its frame and flushes unless another writer is
// queued behind it, so concurrent callers, and calls started without
// waiting, are how a client keeps many requests in flight on one
// connection; Client.OneWay skips response state entirely.
package transport
