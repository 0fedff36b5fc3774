// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for metrics.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package metrics

import (
	"elasticrmi/internal/ermic"
	"time"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *MethodStat) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Method))
	n += ermic.SizeVarint(int64(v.Calls))
	n += 8
	n += ermic.SizeVarint(int64(v.AvgLatency))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *MethodStat) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Method))
	b = ermic.AppendVarint(b, int64(v.Calls))
	b = ermic.AppendFloat64(b, float64(v.RatePerSec))
	b = ermic.AppendVarint(b, int64(v.AvgLatency))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *MethodStat) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest MethodStat).
func (v *MethodStat) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Method, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Calls, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeFloat64(b)
		if err != nil {
			return nil, err
		}
		v.RatePerSec, b = float64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.AvgLatency, b = time.Duration(x), rest
	}
	return b, nil
}
