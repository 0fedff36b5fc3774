package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elasticrmi/internal/transport"
)

// The ElasticRMI registry is the naming service stubs use to locate an
// elastic object pool, playing the role of the RMI registry. A binding maps
// the elastic class name to the current endpoints of the pool, sentinel
// first; the pool manager refreshes the binding as membership changes.

// registryService is the transport service name.
const registryService = "registry"

// Registry wire messages. Bind and Unbind reply with an Empty, and List
// takes one.
//
//ermi:codec
type (
	bindReq struct {
		Name      string
		Endpoints []string
	}
	lookupReq   struct{ Name string }
	lookupReply struct{ Endpoints []string }
	unbindReq   struct{ Name string }
	listReply   struct{ Names []string }
)

const codeNotBound = "NOT_BOUND"

// RegistryServer is a standalone naming service.
type RegistryServer struct {
	srv *transport.Server

	mu       sync.Mutex
	bindings map[string][]string
}

// NewRegistryServer starts a registry on addr (":0" for any port).
func NewRegistryServer(addr string) (*RegistryServer, error) {
	r := &RegistryServer{bindings: make(map[string][]string)}
	srv, err := transport.Serve(addr, r.handle)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r.srv = srv
	return r, nil
}

// Addr returns the registry's listen address.
func (r *RegistryServer) Addr() string { return r.srv.Addr() }

// Close shuts the registry down.
func (r *RegistryServer) Close() error { return r.srv.Close() }

func (r *RegistryServer) handle(req *transport.Request) ([]byte, error) {
	if req.Service != registryService {
		return nil, fmt.Errorf("unknown service %q", req.Service)
	}
	// Every successful reply below is transport.Encode output handed over
	// outright, so the transport releases the slab back to the arena after
	// the write. Without this every registry operation leaked its reply
	// slab out of the arena.
	req.ReleaseReply = true
	switch req.Method {
	case "Bind":
		var b bindReq
		if err := transport.Decode(req.Payload, &b); err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.bindings[b.Name] = append([]string(nil), b.Endpoints...)
		r.mu.Unlock()
		return transport.Encode(&Empty{}), nil
	case "Lookup":
		var l lookupReq
		if err := transport.Decode(req.Payload, &l); err != nil {
			return nil, err
		}
		r.mu.Lock()
		eps, ok := r.bindings[l.Name]
		out := append([]string(nil), eps...)
		r.mu.Unlock()
		if !ok {
			return nil, errors.New(codeNotBound)
		}
		return transport.Encode(&lookupReply{Endpoints: out}), nil
	case "Unbind":
		var u unbindReq
		if err := transport.Decode(req.Payload, &u); err != nil {
			return nil, err
		}
		r.mu.Lock()
		delete(r.bindings, u.Name)
		r.mu.Unlock()
		return transport.Encode(&Empty{}), nil
	case "List":
		r.mu.Lock()
		names := make([]string, 0, len(r.bindings))
		for n := range r.bindings {
			names = append(names, n)
		}
		r.mu.Unlock()
		return transport.Encode(&listReply{Names: names}), nil
	default:
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
}

// RegistryClient talks to a RegistryServer.
type RegistryClient struct {
	mu   sync.Mutex
	conn *transport.Client
}

// DialRegistry connects to the registry at addr.
func DialRegistry(addr string) (*RegistryClient, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("registry client: %w", err)
	}
	return &RegistryClient{conn: conn}, nil
}

func (c *RegistryClient) call(method string, req transport.Marshaler, reply transport.Unmarshaler) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if err := conn.CallDecode(registryService, method, req, reply, 5*time.Second); err != nil {
		var remote *transport.RemoteError
		if errors.As(err, &remote) && remote.Msg == codeNotBound {
			return ErrNotBound
		}
		return err
	}
	return nil
}

// Bind associates name with the pool endpoints (sentinel first).
func (c *RegistryClient) Bind(name string, endpoints []string) error {
	return c.call("Bind", &bindReq{Name: name, Endpoints: endpoints}, &Empty{})
}

// Lookup resolves name to the pool endpoints.
func (c *RegistryClient) Lookup(name string) ([]string, error) {
	var rep lookupReply
	if err := c.call("Lookup", &lookupReq{Name: name}, &rep); err != nil {
		return nil, err
	}
	return rep.Endpoints, nil
}

// Unbind removes a binding.
func (c *RegistryClient) Unbind(name string) error {
	return c.call("Unbind", &unbindReq{Name: name}, &Empty{})
}

// List returns all bound names.
func (c *RegistryClient) List() ([]string, error) {
	var rep listReply
	if err := c.call("List", &Empty{}, &rep); err != nil {
		return nil, err
	}
	return rep.Names, nil
}

// Close releases the connection.
func (c *RegistryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}
