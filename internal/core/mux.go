package core

import (
	"fmt"

	"elasticrmi/internal/transport"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in mux.go,member.go,registry.go -out core_ermi.go

// Payload constrains the argument and reply types of the typed call
// helpers (Call, CallKeyed, Handle): the pointer form must carry the
// generated codec of an `//ermi:codec` struct, so an un-annotated payload
// type is a compile error. Callers name only the payload types —
// core.Call[Args, Reply](...) — and the pointer parameters are inferred.
type Payload[T any] interface {
	*T
	transport.Marshaler
	transport.Unmarshaler
}

// Empty is the shared argument or reply of a remote method that carries
// nothing.
//
//ermi:codec
type Empty struct{}

// Mux dispatches remote method invocations by name to typed handlers. It is
// the Go counterpart of the stub/skeleton method tables that the ElasticRMI
// preprocessor generates from an elastic interface in the paper: the
// application registers one handler per remote method and the Mux takes
// care of unmarshalling arguments and marshalling results.
type Mux struct {
	handlers map[string]func(req *transport.Request) ([]byte, error)
}

var _ Object = (*Mux)(nil)
var _ RequestHandler = (*Mux)(nil)

// NewMux returns an empty method table.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]func(*transport.Request) ([]byte, error))}
}

// HandleCall implements Object. Callers holding only raw bytes (tests,
// adaptors) dispatch through here; the skeleton's hot path uses
// HandleRequest so handlers see the transport request's payload lifetime.
func (m *Mux) HandleCall(method string, arg []byte) ([]byte, error) {
	return m.HandleRequest(&transport.Request{Method: method, Payload: arg})
}

// HandleRequest implements RequestHandler: it dispatches with full request
// context, letting typed handlers retain zero-copy payload views past the
// frame's lifetime and mark codec-encoded replies as transport-owned arena
// memory (released once the response frame is written).
func (m *Mux) HandleRequest(req *transport.Request) ([]byte, error) {
	h, ok := m.handlers[req.Method]
	if !ok {
		return nil, fmt.Errorf("core: no such remote method %q", req.Method)
	}
	return h(req)
}

// Handle registers a typed remote method on the mux. Argument and reply
// travel through their generated codecs. Whether the decoded argument may
// alias the request frame (zero-copy []byte views) is determined once here,
// so the per-call path only pays a Retain for types that need one.
func Handle[Arg, Reply any, PA Payload[Arg], PR Payload[Reply]](m *Mux, name string, fn func(Arg) (Reply, error)) {
	// An argument type carrying the ERMIViews marker decodes []byte fields
	// as views into the payload buffer: the frame must outlive the handler,
	// so the request is detached from arena recycling.
	_, viewy := any(PA(nil)).(interface{ ERMIViews() })
	m.handlers[name] = func(req *transport.Request) ([]byte, error) {
		var arg Arg
		if err := transport.Decode(req.Payload, PA(&arg)); err != nil {
			return nil, fmt.Errorf("method %s: %w", name, err)
		}
		if viewy {
			req.Retain()
		}
		reply, err := fn(arg)
		if err != nil {
			return nil, err
		}
		// The reply buffer is Encode output the handler hands over outright:
		// the transport releases it to the arena after the write.
		req.ReleaseReply = true
		return transport.Encode(PR(&reply)), nil
	}
}
