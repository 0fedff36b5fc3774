// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for payload_test.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package core

import (
	"elasticrmi/internal/ermic"
	"time"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *addArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.N))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *addArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.N))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *addArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest addArgs).
func (v *addArgs) consumeERMI(b []byte) ([]byte, error) {
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
func (v *addReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Total))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *addReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Total))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *addReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest addReply).
func (v *addReply) consumeERMI(b []byte) ([]byte, error) {
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
func (v *uidReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.UID))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *uidReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.UID))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *uidReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest uidReply).
func (v *uidReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.UID, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *napArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.D))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *napArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.D))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *napArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest napArgs).
func (v *napArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.D, b = time.Duration(x), rest
	}
	return b, nil
}
