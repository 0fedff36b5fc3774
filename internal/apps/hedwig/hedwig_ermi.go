// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for hedwig.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package hedwig

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Message) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeVarint(int64(v.Seq))
	n += ermic.SizeBytes(len(v.Body))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Message) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendVarint(b, int64(v.Seq))
	b = ermic.AppendBytes(b, v.Body)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Message) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest Message).
func (v *Message) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Topic, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Seq, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Body, b = x, rest
	}
	return b, nil
}

// ERMIViews marks Message as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*Message) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PublishArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeBytes(len(v.Body))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PublishArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendBytes(b, v.Body)
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PublishArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest PublishArgs).
func (v *PublishArgs) consumeERMI(b []byte) ([]byte, error) {
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
		v.Body, b = x, rest
	}
	return b, nil
}

// ERMIViews marks PublishArgs as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*PublishArgs) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *PublishReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Seq))
	n += ermic.SizeVarint(int64(v.OwnerUID))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *PublishReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Seq))
	b = ermic.AppendVarint(b, int64(v.OwnerUID))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *PublishReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest PublishReply).
func (v *PublishReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Seq, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.OwnerUID, b = int64(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *SubArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeBytes(len(v.Subscriber))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *SubArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendString(b, string(v.Subscriber))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *SubArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest SubArgs).
func (v *SubArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Topic, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Subscriber, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *SubReply) SizeERMI() int {
	n := 0
	n++
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *SubReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendBool(b, bool(v.OK))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *SubReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest SubReply).
func (v *SubReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeBool(b)
		if err != nil {
			return nil, err
		}
		v.OK, b = bool(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *ConsumeArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Topic))
	n += ermic.SizeBytes(len(v.Subscriber))
	n += ermic.SizeVarint(int64(v.Max))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ConsumeArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Topic))
	b = ermic.AppendString(b, string(v.Subscriber))
	b = ermic.AppendVarint(b, int64(v.Max))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ConsumeArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ConsumeArgs).
func (v *ConsumeArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Topic, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Subscriber, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Max, b = int(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *ConsumeReply) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(len(v.Messages)))
	for i1 := range v.Messages {
		n += v.Messages[i1].SizeERMI()
	}
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *ConsumeReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(len(v.Messages)))
	for i1 := range v.Messages {
		b = v.Messages[i1].MarshalERMI(b)
	}
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *ConsumeReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest ConsumeReply).
func (v *ConsumeReply) consumeERMI(b []byte) ([]byte, error) {
	{
		cnt, rest, err := ermic.ConsumeCount(b)
		if err != nil {
			return nil, err
		}
		b = rest
		v.Messages = nil
		if cnt > 0 {
			v.Messages = make([]Message, cnt)
			for i1 := 0; i1 < cnt; i1++ {
				{
					rest, err := v.Messages[i1].consumeERMI(b)
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

// ERMIViews marks ConsumeReply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*ConsumeReply) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *TopicArgs) SizeERMI() int {
	n := 0
	n += ermic.SizeBytes(len(v.Topic))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *TopicArgs) MarshalERMI(b []byte) []byte {
	b = ermic.AppendString(b, string(v.Topic))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *TopicArgs) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest TopicArgs).
func (v *TopicArgs) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Topic, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *OwnerReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.OwnerUID))
	n += ermic.SizeBytes(len(v.OwnerAddr))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *OwnerReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.OwnerUID))
	b = ermic.AppendString(b, string(v.OwnerAddr))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *OwnerReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest OwnerReply).
func (v *OwnerReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.OwnerUID, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.OwnerAddr, b = string(x), rest
	}
	return b, nil
}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *BacklogReply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Undelivered))
	n += ermic.SizeVarint(int64(v.Topics))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *BacklogReply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Undelivered))
	b = ermic.AppendVarint(b, int64(v.Topics))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *BacklogReply) UnmarshalERMI(b []byte) error {
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
// (shared by UnmarshalERMI and codecs that nest BacklogReply).
func (v *BacklogReply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Undelivered, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Topics, b = int(x), rest
	}
	return b, nil
}
