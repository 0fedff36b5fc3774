// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for marketcetera.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package marketcetera

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Order) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.ID))
	n += ermic.SizeBytes(len(v.Trader))
	n += ermic.SizeBytes(len(v.Symbol))
	n += ermic.SizeVarint(int64(v.Side))
	n += ermic.SizeVarint(int64(v.Qty))
	n += ermic.SizeVarint(int64(v.LimitPrice))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Order) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.ID))
	b = ermic.AppendString(b, string(v.Trader))
	b = ermic.AppendString(b, string(v.Symbol))
	b = ermic.AppendVarint(b, int64(v.Side))
	b = ermic.AppendVarint(b, int64(v.Qty))
	b = ermic.AppendVarint(b, int64(v.LimitPrice))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Order) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Order).
func (v *Order) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Trader, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Symbol, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Side, b = Side(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Qty, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.LimitPrice, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Receipt) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.OrderID))
	n += ermic.SizeBytes(len(v.Venue))
	n += ermic.SizeVarint(int64(v.RoutedBy))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Receipt) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.OrderID))
	b = ermic.AppendString(b, string(v.Venue))
	b = ermic.AppendVarint(b, int64(v.RoutedBy))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Receipt) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Receipt).
func (v *Receipt) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.OrderID, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Venue, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.RoutedBy, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Venue) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	n += ermic.SizeUvarint(uint64(len(v.Symbols)))
	for i1 := range v.Symbols {
		n += ermic.SizeBytes(len(v.Symbols[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Venue) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	b = ermic.AppendUvarint(b, uint64(len(v.Symbols)))
	for i1 := range v.Symbols {
		b = ermic.AppendString(b, string(v.Symbols[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Venue) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Venue).
func (v *Venue) consumeERMI(b []byte) ([]byte, error) {
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
		v.Symbols = nil
		if cnt > 0 {
			v.Symbols = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Symbols[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *AddVenueReply) SizeERMI() int {
	n := 0
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *AddVenueReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Added))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *AddVenueReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest AddVenueReply).
func (v *AddVenueReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Added, b = bool(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *VenuesReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Venues)))
	for i1 := range v.Venues {
		n += v.Venues[i1].SizeERMI()
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *VenuesReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Venues)))
	for i1 := range v.Venues {
		b = v.Venues[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *VenuesReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest VenuesReply).
func (v *VenuesReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Venues = nil
		if cnt > 0 {
			v.Venues = make([]Venue, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					rest, err := v.Venues[i1].consumeERMI(b)
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
func (v *Status) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Routed))
	n += ermic.SizeVarint(int64(v.Rejected))
	n += ermic.SizeUvarint(uint64(len(v.ByVenue)))
	for k1 := range v.ByVenue {
		n += ermic.SizeBytes(len(k1))
		e1 := v.ByVenue[k1]
		n += ermic.SizeVarint(int64(e1))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Status) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Routed))
	b = ermic.AppendVarint(b, int64(v.Rejected))
	b = ermic.AppendUvarint(b, uint64(len(v.ByVenue)))
	for k1 := range v.ByVenue {
		e1 := v.ByVenue[k1]
		b = ermic.AppendString(b, string(k1))
		b = ermic.AppendVarint(b, int64(e1))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Status) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Status).
func (v *Status) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Routed, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Rejected, b = int64(x), rest
	}
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if v.ByVenue != nil {
			clear(v.ByVenue)
		} else if cnt > 0 {
			v.ByVenue = make(map[string]int64, cnt)
		}
		for i1 := 0; i1 < cnt; i1++ {
			var k1 string
			var e1 int64
			{
				x, rest, err := ermic.ConsumeString(b)
				if err != nil {
					return nil, err
				}
				k1, b = string(x), rest
			}
			{
				x, rest, err := ermic.ConsumeVarint(b)
				if err != nil {
					return nil, err
				}
				e1, b = int64(x), rest
			}
			v.ByVenue[k1] = e1
		}
	}
	return b, nil
}
