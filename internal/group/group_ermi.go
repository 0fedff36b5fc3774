// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for group.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package group

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *View) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeUvarint(uint64(len(v.Members)))
	for i1 := range v.Members {
		n += ermic.SizeBytes(len(v.Members[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *View) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendUvarint(b, uint64(len(v.Members)))
	for i1 := range v.Members {
		b = ermic.AppendString(b, string(v.Members[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *View) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest View).
func (v *View) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Members = nil
		if cnt > 0 {
			v.Members = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Members[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *wireMsg) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.From))
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeBytes(len(v.Payload))
	n += ermic.SizeUvarint(uint64(v.ViewID))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *wireMsg) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.From))
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendBytes(b, v.Payload)
	b = ermic.AppendUvarint(b, uint64(v.ViewID))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *wireMsg) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest wireMsg).
func (v *wireMsg) consumeERMI(b []byte) ([]byte, error) {
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
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ViewID, b = uint64(x), rest
	}
	return b, nil
}

// ERMIViews marks wireMsg as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*wireMsg) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *wireView) SizeERMI() int {
	n := 0
	n += v.View.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *wireView) MarshalERMI(b []byte) []byte {
	b = v.View.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *wireView) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest wireView).
func (v *wireView) consumeERMI(b []byte) ([]byte, error) {
	{
		rest, err := v.View.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}
