// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for dcs.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package dcs

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Stat) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Czxid))
	n += ermic.SizeVarint(int64(v.Mzxid))
	n += ermic.SizeVarint(int64(v.Version))
	n += ermic.SizeVarint(int64(v.NumChildren))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Stat) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Czxid))
	b = ermic.AppendVarint(b, int64(v.Mzxid))
	b = ermic.AppendVarint(b, int64(v.Version))
	b = ermic.AppendVarint(b, int64(v.NumChildren))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Stat) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Stat).
func (v *Stat) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Czxid, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Mzxid, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Version, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.NumChildren, b = int(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *CreateArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	n += ermic.SizeBytes(len(v.Data))
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *CreateArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	b = ermic.AppendBytes(b, v.Data)
	b = ermic.AppendBool(b, bool(v.Sequential))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *CreateArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest CreateArgs).
func (v *CreateArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Data, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Sequential, b = bool(x), rest
	}
	return b, nil
}

// ERMIViews marks CreateArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*CreateArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *CreateReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	n += ermic.SizeVarint(int64(v.Zxid))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *CreateReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	b = ermic.AppendVarint(b, int64(v.Zxid))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *CreateReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest CreateReply).
func (v *CreateReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Zxid, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PathArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PathArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PathArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest PathArgs).
func (v *PathArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *ExistsReply) SizeERMI() int {
	n := 0
	n++
	n += v.Stat.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ExistsReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Exists))
	b = v.Stat.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ExistsReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ExistsReply).
func (v *ExistsReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Exists, b = bool(x), rest
	}
	{
		rest, err := v.Stat.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *GetDataReply) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Data))
	n += v.Stat.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *GetDataReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBytes(b, v.Data)
	b = v.Stat.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *GetDataReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest GetDataReply).
func (v *GetDataReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Data, b = x, rest
	}
	{
		rest, err := v.Stat.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// ERMIViews marks GetDataReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*GetDataReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *SetDataArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	n += ermic.SizeBytes(len(v.Data))
	n += ermic.SizeVarint(int64(v.ExpectVersion))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *SetDataArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	b = ermic.AppendBytes(b, v.Data)
	b = ermic.AppendVarint(b, int64(v.ExpectVersion))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *SetDataArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest SetDataArgs).
func (v *SetDataArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Data, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.ExpectVersion, b = int64(x), rest
	}
	return b, nil
}

// ERMIViews marks SetDataArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*SetDataArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *SetDataReply) SizeERMI() int {
	n := 0
	n += v.Stat.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *SetDataReply) MarshalERMI(b []byte) []byte {
	b = v.Stat.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *SetDataReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest SetDataReply).
func (v *SetDataReply) consumeERMI(b []byte) ([]byte, error) {
	{
		rest, err := v.Stat.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *DeleteArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	n += ermic.SizeVarint(int64(v.ExpectVersion))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *DeleteArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	b = ermic.AppendVarint(b, int64(v.ExpectVersion))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *DeleteArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest DeleteArgs).
func (v *DeleteArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.ExpectVersion, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *DeleteReply) SizeERMI() int {
	n := 0
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *DeleteReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Deleted))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *DeleteReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest DeleteReply).
func (v *DeleteReply) consumeERMI(b []byte) ([]byte, error) {
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
func (v *ChildrenReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Children)))
	for i1 := range v.Children {
		n += ermic.SizeBytes(len(v.Children[i1]))
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ChildrenReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Children)))
	for i1 := range v.Children {
		b = ermic.AppendString(b, string(v.Children[i1]))
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ChildrenReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ChildrenReply).
func (v *ChildrenReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Children = nil
		if cnt > 0 {
			v.Children = make([]string, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					x, rest, err := ermic.ConsumeString(b)
					if err != nil {
						return nil, err
					}
					v.Children[i1], b = string(x), rest
				}
			}
		}
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *SyncReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Zxid))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *SyncReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Zxid))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *SyncReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest SyncReply).
func (v *SyncReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Zxid, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *AwaitArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Path))
	n += ermic.SizeVarint(int64(v.SinceMzxid))
	n += ermic.SizeVarint(int64(v.TimeoutMillis))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *AwaitArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Path))
	b = ermic.AppendVarint(b, int64(v.SinceMzxid))
	b = ermic.AppendVarint(b, int64(v.TimeoutMillis))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *AwaitArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest AwaitArgs).
func (v *AwaitArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Path, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.SinceMzxid, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.TimeoutMillis, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *AwaitReply) SizeERMI() int {
	n := 0
	n++
	n++
	n += ermic.SizeBytes(len(v.Data))
	n += v.Stat.SizeERMI()
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *AwaitReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.Changed))
	b = ermic.AppendBool(b, bool(v.Deleted))
	b = ermic.AppendBytes(b, v.Data)
	b = v.Stat.MarshalERMI(b)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *AwaitReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest AwaitReply).
func (v *AwaitReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Changed, b = bool(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.Deleted, b = bool(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Data, b = x, rest
	}
	{
		rest, err := v.Stat.consumeERMI(b)
		if err != nil {
			return nil, err
		}
		b = rest
	}
	return b, nil
}

// ERMIViews marks AwaitReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*AwaitReply) ERMIViews() {}
