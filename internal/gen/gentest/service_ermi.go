// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for service.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package gentest

import (
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermic"
	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
	"time"
)

// CounterStub is the generated client stub for Counter: the client's
// local representative of the elastic object pool. The existence of a pool
// of objects is known to the stub but not to the client application.
type CounterStub struct {
	stub *core.Stub
}

var _ Counter = (*CounterStub)(nil)

// NewCounterStub wraps a located pool in the typed stub.
func NewCounterStub(stub *core.Stub) *CounterStub {
	return &CounterStub{stub: stub}
}

// LookupCounter resolves the pool name through the registry and returns
// the typed stub.
func LookupCounter(name string, reg *core.RegistryClient, opts ...core.StubOption) (*CounterStub, error) {
	s, err := core.LookupStub(name, reg, opts...)
	if err != nil {
		return nil, err
	}
	return NewCounterStub(s), nil
}

// Close releases the stub's connections.
func (s *CounterStub) Close() error { return s.stub.Close() }

// Bump invokes the remote method on the elastic pool.
func (s *CounterStub) Bump(arg BumpArgs) (BumpReply, error) {
	return core.Call[BumpArgs, BumpReply](s.stub, "Bump", arg)
}

// Peek invokes the remote method on the elastic pool.
func (s *CounterStub) Peek(arg PeekArgs) (BumpReply, error) {
	return core.Call[PeekArgs, BumpReply](s.stub, "Peek", arg)
}

// Tag invokes the remote method on the elastic pool.
func (s *CounterStub) Tag(arg TagArgs) (TagReply, error) {
	return core.Call[TagArgs, TagReply](s.stub, "Tag", arg)
}

// TagWithAffinity invokes Tag routed by consistent-hash key
// affinity on arg.Key: every invocation carrying the same key
// lands on the same pool member (across all stubs holding the same routing
// table), keeping member-local state for that key hot.
func (s *CounterStub) TagWithAffinity(arg TagArgs) (TagReply, error) {
	return core.CallKeyed[TagArgs, TagReply](s.stub, "Tag", string(arg.Key), arg)
}

// Sink invokes the remote method on the elastic pool.
func (s *CounterStub) Sink(arg BlobArgs) (BlobReply, error) {
	return core.Call[BlobArgs, BlobReply](s.stub, "Sink", arg)
}

// RegisterCounter binds an implementation to the method table of a
// skeleton (the generated server-side dispatch).
func RegisterCounter(mux *core.Mux, impl Counter) {
	core.Handle(mux, "Bump", impl.Bump)
	core.Handle(mux, "Peek", impl.Peek)
	core.Handle(mux, "Tag", impl.Tag)
	core.Handle(mux, "Sink", impl.Sink)
}

// NewCounterFactory adapts an application constructor into a core.Factory
// whose objects dispatch through the generated skeleton table.
func NewCounterFactory(newImpl func(ctx *core.MemberContext) (Counter, error)) core.Factory {
	return func(ctx *core.MemberContext) (core.Object, error) {
		impl, err := newImpl(ctx)
		if err != nil {
			return nil, err
		}
		mux := core.NewMux()
		RegisterCounter(mux, impl)
		if sizer, ok := impl.(core.PoolSizer); ok {
			return &sizedCounterObject{mux: mux, sizer: sizer}, nil
		}
		return mux, nil
	}
}

// sizedCounterObject forwards ChangePoolSize when the implementation is
// fine-grained, so the runtime selects the fine policy (§3.3).
type sizedCounterObject struct {
	mux   *core.Mux
	sizer core.PoolSizer
}

// HandleCall implements core.Object.
func (o *sizedCounterObject) HandleCall(method string, arg []byte) ([]byte, error) {
	return o.mux.HandleCall(method, arg)
}

// HandleRequest implements core.RequestHandler: the skeleton's hot path
// keeps the payload's arena lifetime visible to the typed handlers.
func (o *sizedCounterObject) HandleRequest(req *transport.Request) ([]byte, error) {
	return o.mux.HandleRequest(req)
}

// ChangePoolSize implements core.PoolSizer.
func (o *sizedCounterObject) ChangePoolSize() int { return o.sizer.ChangePoolSize() }

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *BumpArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.N))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *BumpArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.N))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *BumpArgs) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest BumpArgs).
func (v *BumpArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.N, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *BumpReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Total))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *BumpReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Total))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *BumpReply) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest BumpReply).
func (v *BumpReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Total, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PeekArgs) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PeekArgs) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PeekArgs) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest PeekArgs).
func (v *PeekArgs) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *TagArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeBytes(len(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *TagArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendString(b, string(v.Value))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *TagArgs) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest TagArgs).
func (v *TagArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *TagReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.MemberUID))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *TagReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.MemberUID))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *TagReply) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest TagReply).
func (v *TagReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.MemberUID, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *BlobArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Data))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *BlobArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Data)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *BlobArgs) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest BlobArgs).
func (v *BlobArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Data, b = x, rest
	}
	return b, nil
}

// ERMIViews marks BlobArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*BlobArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *BlobReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Len))
	n += ermic.SizeUvarint(uint64(v.First))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *BlobReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Len))
	b = ermic.AppendUvarint(b, uint64(v.First))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *BlobReply) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest BlobReply).
func (v *BlobReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Len, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.First, b = byte(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *StampArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeTime(v.At)
	n += ermic.SizeBytes(v.Stat.SizeERMI())
	n += ermic.SizeUvarint(uint64(len(v.Peers)))
	for i1 := range v.Peers {
		n += ermic.SizeBytes(v.Peers[i1].SizeERMI())
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *StampArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendTime(b, v.At)
	b = ermic.AppendUvarint(b, uint64(v.Stat.SizeERMI()))
	b = v.Stat.MarshalERMI(b)
	b = ermic.AppendUvarint(b, uint64(len(v.Peers)))
	for i1 := range v.Peers {
		b = ermic.AppendUvarint(b, uint64(v.Peers[i1].SizeERMI()))
		b = v.Peers[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *StampArgs) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest StampArgs).
func (v *StampArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeTime(b)
		if err != nil {
			return nil, err
		}
		v.At, b = time.Time(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		if err := v.Stat.UnmarshalERMI(x); err != nil {
			return nil, err
		}
		b = rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Peers = nil
		if cnt > 0 {
			v.Peers = make([]route.Member, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeBytesView(b)
					if err != nil {
						return nil, err
					}
					if err := v.Peers[i1].UnmarshalERMI(x); err != nil {
						return nil, err
					}
					b = rest
				}
			}
		}
	}
	return b, nil
}

// ERMIViews marks StampArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*StampArgs) ERMIViews() {}
