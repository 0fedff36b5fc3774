// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for paxos.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package paxos

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *ProposeArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ProposeArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Value)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ProposeArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ProposeArgs).
func (v *ProposeArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	return b, nil
}

// ERMIViews marks ProposeArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*ProposeArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *ProposeReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Slot))
	n += ermic.SizeBytes(len(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ProposeReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Slot))
	b = ermic.AppendBytes(b, v.Value)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ProposeReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ProposeReply).
func (v *ProposeReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Slot, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	return b, nil
}

// ERMIViews marks ProposeReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*ProposeReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *GetArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Slot))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *GetArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Slot))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *GetArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest GetArgs).
func (v *GetArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Slot, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *GetReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *GetReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Value)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *GetReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest GetReply).
func (v *GetReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	return b, nil
}

// ERMIViews marks GetReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*GetReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *StatusReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Decided))
	n += ermic.SizeVarint(int64(v.NextSlot))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *StatusReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Decided))
	b = ermic.AppendVarint(b, int64(v.NextSlot))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *StatusReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest StatusReply).
func (v *StatusReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Decided, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.NextSlot, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *wire) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Kind))
	n += ermic.SizeVarint(int64(v.Slot))
	n += ermic.SizeVarint(int64(v.Ballot))
	n += ermic.SizeBytes(len(v.From))
	n++
	n += ermic.SizeVarint(int64(v.AccBal))
	n += ermic.SizeBytes(len(v.AccVal))
	n += ermic.SizeBytes(len(v.Value))
	n += ermic.SizeVarint(int64(v.Promote))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *wire) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Kind))
	b = ermic.AppendVarint(b, int64(v.Slot))
	b = ermic.AppendVarint(b, int64(v.Ballot))
	b = ermic.AppendString(b, string(v.From))
	b = ermic.AppendBool(b, bool(v.OK))
	b = ermic.AppendVarint(b, int64(v.AccBal))
	b = ermic.AppendBytes(b, v.AccVal)
	b = ermic.AppendBytes(b, v.Value)
	b = ermic.AppendVarint(b, int64(v.Promote))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *wire) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest wire).
func (v *wire) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Kind, b = msgKind(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Slot, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Ballot, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.From, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.OK, b = bool(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.AccBal, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.AccVal, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Promote, b = int64(x), rest
	}
	return b, nil
}

// ERMIViews marks wire as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*wire) ERMIViews() {}
