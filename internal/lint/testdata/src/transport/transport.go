// Package transport is a fixture stub mirroring the shape of the real
// elasticrmi/internal/transport package: the analyzers bind to types
// structurally (package basename + type name), so this stub exercises
// them exactly like the real thing.
package transport

import (
	"sync"
	"time"
)

// Request mirrors transport.Request's ownership-relevant surface.
type Request struct {
	Service, Method string
	Payload         []byte
	Budget          time.Duration
	Deadline        time.Time
	ReleaseReply    bool

	retained bool
}

// Retain detaches the payload slab from arena recycling.
func (r *Request) Retain() { r.retained = true }

// Handler mirrors the server dispatch signature.
type Handler func(req *Request) ([]byte, error)

// Marshaler and Unmarshaler mirror the generated payload codec halves.
type Marshaler interface {
	SizeERMI() int
	MarshalERMI(b []byte) []byte
}

type Unmarshaler interface {
	UnmarshalERMI(b []byte) error
}

func Encode(v Marshaler) []byte            { return nil }
func Decode(b []byte, v Unmarshaler) error { return nil }

// Client mirrors the RPC client surface the analyzers know about.
type Client struct {
	mu sync.Mutex
}

func Dial(addr string) (*Client, error) { return &Client{}, nil }

func (c *Client) Call(service, method string, payload []byte, timeout time.Duration) ([]byte, error) {
	return nil, nil
}

func (c *Client) CallDecode(service, method string, arg Marshaler, reply Unmarshaler, timeout time.Duration) error {
	return nil
}

// Completer receives the outcome of a call begun with Start.
type Completer interface {
	Complete(payload []byte, err error)
}

func (c *Client) Start(service, method string, payload []byte, budget time.Duration, done Completer) {
}

func (c *Client) OneWay(service, method string, payload []byte) error { return nil }
func (c *Client) Close() error                                        { return nil }

// Server mirrors the listener side (its mu is a flagged mutex).
type Server struct {
	mu sync.Mutex
}
