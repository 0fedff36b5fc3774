package main

import "elasticrmi/internal/core"

//go:generate go run elasticrmi/cmd/ermi-gen -in service.go

// Argument and reply types of the elastic interface; the //ermi:codec mark
// makes the preprocessor emit the binary payload codecs the generated stub
// marshals them with.
//
//ermi:codec
type (
	// SetArgs writes Key=Value.
	SetArgs struct {
		Key   string
		Value string
	}
	// SetReply acknowledges a write.
	SetReply struct{ Stored bool }
	// GetArgs names a key.
	GetArgs struct{ Key string }
	// GetReply returns the value ("" if absent).
	GetReply struct {
		Value string
		Found bool
	}
)

// KVService is an elastic interface: the preprocessor (ermi-gen) generates
// its typed stub and skeleton into service_ermi.go. Regenerate with:
//
//	go run ./cmd/ermi-gen -in examples/genstub/service.go
//
//ermi:elastic
type KVService interface {
	// Set and Get are annotated with key extractors: the generated stub
	// grows SetWithAffinity/GetWithAffinity variants that consistently
	// route each key to one pool member.
	//
	//ermi:affinity Key
	Set(arg SetArgs) (SetReply, error)
	//ermi:affinity Key
	Get(arg GetArgs) (GetReply, error)
}

// kvImpl is the application's implementation of the elastic class; state
// lives in the pool's shared store so all members serve the same data.
type kvImpl struct {
	ctx *core.MemberContext
}

var _ KVService = (*kvImpl)(nil)

func newKVImpl(ctx *core.MemberContext) (KVService, error) {
	return &kvImpl{ctx: ctx}, nil
}

// Set implements KVService.
func (k *kvImpl) Set(arg SetArgs) (SetReply, error) {
	if err := k.ctx.State.PutString("kv/"+arg.Key, arg.Value); err != nil {
		return SetReply{}, err
	}
	return SetReply{Stored: true}, nil
}

// Get implements KVService.
func (k *kvImpl) Get(arg GetArgs) (GetReply, error) {
	v, err := k.ctx.State.GetString("kv/" + arg.Key)
	if err != nil {
		return GetReply{}, err
	}
	return GetReply{Value: v, Found: v != ""}, nil
}
