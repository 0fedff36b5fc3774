// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for mux.go, member.go, registry.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package core

import (
	"elasticrmi/internal/ermic"
	"elasticrmi/internal/metrics"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Empty) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Empty) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Empty) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Empty).
func (v *Empty) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *StatsReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Pool))
	n += ermic.SizeVarint(int64(v.UID))
	n += ermic.SizeVarint(int64(v.Pending))
	n++
	n += 8
	n += 8
	n += ermic.SizeUvarint(uint64(v.Shed))
	n += ermic.SizeUvarint(uint64(v.Expired))
	n += ermic.SizeUvarint(uint64(len(v.Methods)))
	for i1 := range v.Methods {
		n += ermic.SizeBytes(v.Methods[i1].SizeERMI())
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *StatsReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Pool))
	b = ermic.AppendVarint(b, int64(v.UID))
	b = ermic.AppendVarint(b, int64(v.Pending))
	b = ermic.AppendBool(b, bool(v.Draining))
	b = ermic.AppendFloat64(b, float64(v.CPU))
	b = ermic.AppendFloat64(b, float64(v.RAM))
	b = ermic.AppendUvarint(b, uint64(v.Shed))
	b = ermic.AppendUvarint(b, uint64(v.Expired))
	b = ermic.AppendUvarint(b, uint64(len(v.Methods)))
	for i1 := range v.Methods {
		b = ermic.AppendUvarint(b, uint64(v.Methods[i1].SizeERMI()))
		b = v.Methods[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *StatsReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest StatsReply).
func (v *StatsReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Pool, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.UID, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Pending, b = int(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Draining, b = bool(x), rest
	}
	{
		x, rest, err := ermic.ConsumeFloat64(b)
		if err != nil {
			return nil, err
		}
		v.CPU, b = float64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeFloat64(b)
		if err != nil {
			return nil, err
		}
		v.RAM, b = float64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Shed, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Expired, b = uint64(x), rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Methods = nil
		if cnt > 0 {
			v.Methods = make([]metrics.MethodStat, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeBytesView(b)
					if err != nil {
						return nil, err
					}
					if err := v.Methods[i1].UnmarshalERMI(x); err != nil {
						return nil, err
					}
					b = rest
				}
			}
		}
	}
	return b, nil
}

// ERMIViews marks StatsReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*StatsReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *MemberInfo) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Addr))
	n += ermic.SizeVarint(int64(v.UID))
	n += ermic.SizeVarint(int64(v.Pending))
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *MemberInfo) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Addr))
	b = ermic.AppendVarint(b, int64(v.UID))
	b = ermic.AppendVarint(b, int64(v.Pending))
	b = ermic.AppendBool(b, bool(v.Draining))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *MemberInfo) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest MemberInfo).
func (v *MemberInfo) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Addr, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.UID, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Pending, b = int(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Draining, b = bool(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *DiscoverReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Pool))
	n += ermic.SizeUvarint(uint64(v.Epoch))
	n += ermic.SizeUvarint(uint64(len(v.Members)))
	for i1 := range v.Members {
		n += v.Members[i1].SizeERMI()
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *DiscoverReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Pool))
	b = ermic.AppendUvarint(b, uint64(v.Epoch))
	b = ermic.AppendUvarint(b, uint64(len(v.Members)))
	for i1 := range v.Members {
		b = v.Members[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *DiscoverReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest DiscoverReply).
func (v *DiscoverReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Pool, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Epoch, b = uint64(x), rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Members = nil
		if cnt > 0 {
			v.Members = make([]MemberInfo, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					rest, err := v.Members[i1].consumeERMI(b)
					if err != nil {
						return nil, err
					}
					b = rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *peerMsg) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.From))
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeBytes(len(v.Payload))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *peerMsg) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.From))
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendBytes(b, v.Payload)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *peerMsg) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest peerMsg).
func (v *peerMsg) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.From, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Topic, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Payload, b = x, rest
	}
	return b, nil
}

// ERMIViews marks peerMsg as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*peerMsg) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *bindReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	n += ermic.SizeUvarint(uint64(len(v.Endpoints)))
	for i1 := range v.Endpoints {
		n += ermic.SizeBytes(len(v.Endpoints[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *bindReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	b = ermic.AppendUvarint(b, uint64(len(v.Endpoints)))
	for i1 := range v.Endpoints {
		b = ermic.AppendString(b, string(v.Endpoints[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *bindReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest bindReq).
func (v *bindReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Name, b = string(x), rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Endpoints = nil
		if cnt > 0 {
			v.Endpoints = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Endpoints[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *lookupReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *lookupReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *lookupReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest lookupReq).
func (v *lookupReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Name, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *lookupReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Endpoints)))
	for i1 := range v.Endpoints {
		n += ermic.SizeBytes(len(v.Endpoints[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *lookupReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Endpoints)))
	for i1 := range v.Endpoints {
		b = ermic.AppendString(b, string(v.Endpoints[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *lookupReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest lookupReply).
func (v *lookupReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Endpoints = nil
		if cnt > 0 {
			v.Endpoints = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Endpoints[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *unbindReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *unbindReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *unbindReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest unbindReq).
func (v *unbindReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Name, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *listReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Names)))
	for i1 := range v.Names {
		n += ermic.SizeBytes(len(v.Names[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *listReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Names)))
	for i1 := range v.Names {
		b = ermic.AppendString(b, string(v.Names[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *listReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest listReply).
func (v *listReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Names = nil
		if cnt > 0 {
			v.Names = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Names[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}
