// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for cache.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package cache

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *GetArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *GetArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
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
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *GetReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Value))
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *GetReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Value)
	b = ermic.AppendBool(b, bool(v.Hit))
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
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Hit, b = bool(x), rest
	}
	return b, nil
}

// ERMIViews marks GetReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*GetReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PutArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeBytes(len(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PutArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendBytes(b, v.Value)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PutArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest PutArgs).
func (v *PutArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
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

// ERMIViews marks PutArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*PutArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PutReply) SizeERMI() int {
	n := 0
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PutReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Stored))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PutReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest PutReply).
func (v *PutReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Stored, b = bool(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *DelReply) SizeERMI() int {
	n := 0
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *DelReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Deleted))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *DelReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest DelReply).
func (v *DelReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Deleted, b = bool(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *LenReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.N))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *LenReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.N))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *LenReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest LenReply).
func (v *LenReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.N, b = int64(x), rest
	}
	return b, nil
}
