// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for route.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package route

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Member) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Addr))
	n += ermic.SizeVarint(int64(v.UID))
	n += ermic.SizeVarint(int64(v.Weight))
	n += ermic.SizeVarint(int64(v.Load))
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Member) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Addr))
	b = ermic.AppendVarint(b, int64(v.UID))
	b = ermic.AppendVarint(b, int64(v.Weight))
	b = ermic.AppendVarint(b, int64(v.Load))
	b = ermic.AppendBool(b, bool(v.Draining))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Member) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Member).
func (v *Member) consumeERMI(b []byte) ([]byte, error) {
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
		v.Weight, b = int32(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Load, b = int32(x), rest
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
func (v *Table) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.Epoch))
	n += ermic.SizeUvarint(uint64(len(v.Members)))
	for i1 := range v.Members {
		n += v.Members[i1].SizeERMI()
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Table) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.Epoch))
	b = ermic.AppendUvarint(b, uint64(len(v.Members)))
	for i1 := range v.Members {
		b = v.Members[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Table) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Table).
func (v *Table) consumeERMI(b []byte) ([]byte, error) {
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
			v.Members = make([]Member, cnt)
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
