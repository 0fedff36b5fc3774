package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/transport"
)

// Wire layout of the benchmark's argument bytes. Every request starts with
// the caller's request id, which links the member-side handler span to the
// client-side invocation span.
//
//	echo: id | payload             → the whole request, byte for byte
//	nop:  id                       → id
//	put:  id | key u32 | value     → empty
//	get:  id | key u32             → value
//	add:  id | counter u32 | delta → new total (8 bytes)
const (
	hdrLen    = 8
	keyOff    = 8
	argOff    = 12
	valueSize = 256
)

var errShortArg = errors.New("benchmark: short argument")

// class is the benchmark's elastic class. One definition serves both the
// stateless echo workloads (only echo/nop are called) and the stateful
// one, whose methods touch instance fields in the shared store.
type class struct {
	tr        *tracer
	fields    []string // data key index → field name
	ctrFields []string // counter index → field name
	// store, when stateful is set, is what each member opens its own
	// kvstore.ClusterSession on, so members read through a lease cache.
	store    *kvstore.Cluster
	stateful bool

	mu      sync.Mutex
	members map[int64]*object
	lastUID atomic.Int64 // UID of the most recently created member
}

func newClass(tr *tracer, store *kvstore.Cluster, stateful bool) *class {
	c := &class{tr: tr, store: store, stateful: stateful, members: make(map[int64]*object)}
	if !stateful {
		return c
	}
	c.fields = make([]string, stateKeys)
	for i := range c.fields {
		c.fields[i] = fmt.Sprintf("k%05d", i)
	}
	c.ctrFields = make([]string, callers*ctrsPer)
	for i := range c.ctrFields {
		c.ctrFields[i] = fmt.Sprintf("c%03d", i)
	}
	return c
}

// object is one pool member's instance of the class.
type object struct {
	cls    *class
	uid    int64
	st     *core.State
	sess   *kvstore.ClusterSession // nil unless the class is stateful
	served chan struct{}           // closed when the member serves its first call
	first  atomic.Int64            // when it did (ns since epoch), 0 before
}

var (
	_ core.RequestHandler = (*object)(nil)
	_ core.Closer         = (*object)(nil)
)

func (c *class) factory(ctx *core.MemberContext) (core.Object, error) {
	o := &object{cls: c, uid: ctx.UID, st: ctx.State, served: make(chan struct{})}
	if c.stateful {
		o.sess = c.store.NewSession(kvstore.SessionOptions{})
		o.st = core.NewState(ctx.PoolName, fmt.Sprintf("%s/%d", ctx.PoolName, ctx.UID), o.sess, nil)
	}
	c.mu.Lock()
	c.members[ctx.UID] = o
	c.mu.Unlock()
	c.lastUID.Store(ctx.UID)
	return o, nil
}

func (c *class) member(uid int64) *object {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[uid]
}

// allMembers returns every member ever created, live or removed.
func (c *class) allMembers() []*object {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*object, 0, len(c.members))
	for _, o := range c.members {
		out = append(out, o)
	}
	return out
}

// sessionStats sums the session-cache counters of the given members.
func sessionStats(objs []*object) kvstore.ClusterSessionStats {
	var out kvstore.ClusterSessionStats
	for _, o := range objs {
		if o.sess == nil {
			continue
		}
		st := o.sess.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Invalidations += st.Invalidations
	}
	return out
}

func (o *object) HandleCall(method string, arg []byte) ([]byte, error) {
	return o.HandleRequest(&transport.Request{Method: method, Payload: arg})
}

func (o *object) HandleRequest(req *transport.Request) ([]byte, error) {
	start := now()
	if o.first.Load() == 0 && o.first.CompareAndSwap(0, start) {
		close(o.served)
	}
	p := req.Payload
	if len(p) < hdrLen {
		return nil, errShortArg
	}
	traced := o.cls.tr.on.Load()
	hid := handlerID(binary.LittleEndian.Uint64(p))
	out, err := o.dispatch(req.Method, p, traced, hid)
	if traced {
		o.cls.tr.add(span{id: hid, parent: hid &^ (1 << 63), kind: spanHandler, start: start, end: now()})
	}
	return out, err
}

// dispatch runs the method body. Replies either alias the request payload
// or are fresh memory the transport does not own, so ReleaseReply stays
// false throughout.
func (o *object) dispatch(method string, p []byte, traced bool, hid uint64) ([]byte, error) {
	switch method {
	case "echo":
		return p, nil
	case "nop":
		return p[:hdrLen], nil
	}
	if len(p) < argOff {
		return nil, errShortArg
	}
	idx := int(binary.LittleEndian.Uint32(p[keyOff:]))
	var t0 int64
	if traced {
		t0 = now()
	}
	switch method {
	case "put":
		if idx >= len(o.cls.fields) {
			return nil, errShortArg
		}
		err := o.st.PutBytes(o.cls.fields[idx], p[argOff:])
		if traced {
			o.cls.tr.child(hid, spanPut, t0)
		}
		return nil, err
	case "get":
		if idx >= len(o.cls.fields) {
			return nil, errShortArg
		}
		v, err := o.st.GetBytes(o.cls.fields[idx])
		if traced {
			o.cls.tr.child(hid, spanGet, t0)
		}
		return v, err
	case "add":
		if idx >= len(o.cls.ctrFields) || len(p) < argOff+8 {
			return nil, errShortArg
		}
		delta := int64(binary.LittleEndian.Uint64(p[argOff:]))
		total, err := o.st.AddInt(o.cls.ctrFields[idx], delta)
		if traced {
			o.cls.tr.child(hid, spanAdd, t0)
		}
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), uint64(total)), nil
	}
	return nil, fmt.Errorf("benchmark: no method %q", method)
}

func (o *object) Close() error {
	if o.sess != nil {
		return o.sess.Close()
	}
	return nil
}

// encodeValue fills dst (valueSize bytes) with the record for (key,
// writer, seq): a header naming all three, then filler derived from them,
// so a read can tell a torn, foreign or corrupt value from a real one.
func encodeValue(dst []byte, key int, writer int, seq uint64) {
	binary.LittleEndian.PutUint32(dst, uint32(key))
	dst[4] = byte(writer)
	binary.LittleEndian.PutUint64(dst[5:], seq)
	f := byte(key*13) + byte(seq*31)
	for i := 13; i < valueSize; i++ {
		dst[i] = f + byte(i*7)
	}
}

// decodeValue checks v's framing and filler and returns its header.
func decodeValue(v []byte) (key, writer int, seq uint64, err error) {
	if len(v) != valueSize {
		return 0, 0, 0, fmt.Errorf("value is %d bytes, want %d", len(v), valueSize)
	}
	key = int(binary.LittleEndian.Uint32(v))
	writer = int(v[4])
	seq = binary.LittleEndian.Uint64(v[5:])
	f := byte(key*13) + byte(seq*31)
	for i := 13; i < valueSize; i++ {
		if v[i] != f+byte(i*7) {
			return 0, 0, 0, fmt.Errorf("value filler corrupt at byte %d", i)
		}
	}
	return key, writer, seq, nil
}
