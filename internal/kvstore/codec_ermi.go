// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for server.go, store.go, session.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package kvstore

import (
	"elasticrmi/internal/ermic"
	"time"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *getReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *getReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *getReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest getReq).
func (v *getReq) consumeERMI(b []byte) ([]byte, error) {
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
func (v *getReply) SizeERMI() int {
	n := 0
	n += v.Val.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *getReply) MarshalERMI(b []byte) []byte {
	b = v.Val.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *getReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest getReply).
func (v *getReply) consumeERMI(b []byte) ([]byte, error) {
	{
		rest, err := v.Val.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// ERMIViews marks getReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*getReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *putReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeBytes(len(v.Val))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *putReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendBytes(b, v.Val)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *putReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest putReq).
func (v *putReq) consumeERMI(b []byte) ([]byte, error) {
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
		v.Val, b = x, rest
	}
	return b, nil
}

// ERMIViews marks putReq as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*putReq) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *putReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.Version))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *putReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.Version))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *putReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest putReply).
func (v *putReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Version, b = uint64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *delReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *delReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *delReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest delReq).
func (v *delReq) consumeERMI(b []byte) ([]byte, error) {
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
func (v *delReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *delReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *delReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest delReply).
func (v *delReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *casReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeBytes(len(v.Val))
	n += ermic.SizeUvarint(uint64(v.ExpectVersion))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *casReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendBytes(b, v.Val)
	b = ermic.AppendUvarint(b, uint64(v.ExpectVersion))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *casReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest casReq).
func (v *casReq) consumeERMI(b []byte) ([]byte, error) {
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
		v.Val, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ExpectVersion, b = uint64(x), rest
	}
	return b, nil
}

// ERMIViews marks casReq as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*casReq) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *casReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.Version))
	n += v.Current.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *casReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.Version))
	b = v.Current.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *casReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest casReply).
func (v *casReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Version, b = uint64(x), rest
	}
	{
		rest, err := v.Current.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// ERMIViews marks casReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*casReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *addReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeVarint(int64(v.Delta))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *addReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendVarint(b, int64(v.Delta))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *addReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest addReq).
func (v *addReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Delta, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *addReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Value))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *addReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Value))
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
		v.Value, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *keysReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Prefix))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *keysReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Prefix))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *keysReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest keysReq).
func (v *keysReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Prefix, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *keysReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Keys)))
	for i1 := range v.Keys {
		n += ermic.SizeBytes(len(v.Keys[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *keysReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Keys)))
	for i1 := range v.Keys {
		b = ermic.AppendString(b, string(v.Keys[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *keysReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest keysReply).
func (v *keysReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Keys = nil
		if cnt > 0 {
			v.Keys = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Keys[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *lockReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	n += ermic.SizeBytes(len(v.Owner))
	n += ermic.SizeVarint(int64(v.Lease))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *lockReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	b = ermic.AppendString(b, string(v.Owner))
	b = ermic.AppendVarint(b, int64(v.Lease))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *lockReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest lockReq).
func (v *lockReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Name, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Owner, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Lease, b = time.Duration(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *lockReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *lockReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *lockReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest lockReply).
func (v *lockReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *unlockReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Name))
	n += ermic.SizeBytes(len(v.Owner))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *unlockReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Name))
	b = ermic.AppendString(b, string(v.Owner))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *unlockReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest unlockReq).
func (v *unlockReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Name, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Owner, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *unlockReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *unlockReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *unlockReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest unlockReply).
func (v *unlockReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *exportReq) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *exportReq) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *exportReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest exportReq).
func (v *exportReq) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *exportReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Recs))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *exportReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Recs)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *exportReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest exportReply).
func (v *exportReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Recs, b = x, rest
	}
	return b, nil
}

// ERMIViews marks exportReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*exportReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *replReq) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Recs))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *replReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Recs)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *replReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest replReq).
func (v *replReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Recs, b = x, rest
	}
	return b, nil
}

// ERMIViews marks replReq as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*replReq) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *replReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *replReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *replReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest replReply).
func (v *replReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Versioned) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Value))
	n += ermic.SizeUvarint(uint64(v.Version))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Versioned) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Value)
	b = ermic.AppendUvarint(b, uint64(v.Version))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Versioned) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Versioned).
func (v *Versioned) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Version, b = uint64(x), rest
	}
	return b, nil
}

// ERMIViews marks Versioned as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*Versioned) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessOpenReq) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessOpenReq) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessOpenReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessOpenReq).
func (v *sessOpenReq) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessOpenReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeVarint(int64(v.TTL))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessOpenReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendVarint(b, int64(v.TTL))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessOpenReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessOpenReply).
func (v *sessOpenReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.TTL, b = time.Duration(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessKeepReq) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeUvarint(uint64(v.Processed))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessKeepReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendUvarint(b, uint64(v.Processed))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessKeepReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessKeepReq).
func (v *sessKeepReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Processed, b = uint64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessKeepReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.EventSeq))
	n += ermic.SizeVarint(int64(v.TTL))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessKeepReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.EventSeq))
	b = ermic.AppendVarint(b, int64(v.TTL))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessKeepReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessKeepReply).
func (v *sessKeepReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.EventSeq, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.TTL, b = time.Duration(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessCloseReq) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessCloseReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessCloseReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessCloseReq).
func (v *sessCloseReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessCloseReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessCloseReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessCloseReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessCloseReply).
func (v *sessCloseReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *leaseReq) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeBytes(len(v.Key))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *leaseReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendString(b, string(v.Key))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *leaseReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest leaseReq).
func (v *leaseReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
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
func (v *leaseReply) SizeERMI() int {
	n := 0
	n += v.Val.SizeERMI()
	n += ermic.SizeUvarint(uint64(v.Snapshot))
	n++
	n += ermic.SizeUvarint(uint64(v.Gen))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *leaseReply) MarshalERMI(b []byte) []byte {
	b = v.Val.MarshalERMI(b)
	b = ermic.AppendUvarint(b, uint64(v.Snapshot))
	b = ermic.AppendBool(b, bool(v.NoCache))
	b = ermic.AppendUvarint(b, uint64(v.Gen))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *leaseReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest leaseReply).
func (v *leaseReply) consumeERMI(b []byte) ([]byte, error) {
	{
		rest, err := v.Val.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Snapshot, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.NoCache, b = bool(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Gen, b = uint64(x), rest
	}
	return b, nil
}

// ERMIViews marks leaseReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*leaseReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessAckReq) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeUvarint(uint64(v.Seq))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessAckReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendUvarint(b, uint64(v.Seq))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessAckReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessAckReq).
func (v *sessAckReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Seq, b = uint64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessAckReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessAckReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessAckReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessAckReply).
func (v *sessAckReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessForgetReq) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.ID))
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeUvarint(uint64(v.Gen))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessForgetReq) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.ID))
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendUvarint(b, uint64(v.Gen))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessForgetReq) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessForgetReq).
func (v *sessForgetReq) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.ID, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Gen, b = uint64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *sessForgetReply) SizeERMI() int {
	n := 0
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *sessForgetReply) MarshalERMI(b []byte) []byte {
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *sessForgetReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest sessForgetReply).
func (v *sessForgetReply) consumeERMI(b []byte) ([]byte, error) {
	return b, nil
}
