package transport

import (
	"sync"
	"time"
)

// ConnCache is a keyed cache of Clients: one shared connection per remote
// address, dialed lazily. Dials happen outside the cache lock, and
// concurrent Gets for the same address coalesce onto a single in-flight dial
// (singleflight), so a slow or unreachable peer never blocks calls to other
// peers and never triggers a thundering herd of dials.
//
// The stub, the pool runtime and other connection-holding layers share
// this type instead of each maintaining its own map of clients.
type ConnCache struct {
	opts DialOptions

	mu      sync.Mutex
	conns   map[string]*Client
	dialing map[string]*dialWait
	closed  bool
}

// dialWait is one in-flight dial; done is closed once c/err are set.
type dialWait struct {
	done chan struct{}
	c    *Client
	err  error
}

// NewConnCache creates a cache applying opts to every client it dials
// (dial timeout, epoch stamping, route-update delivery). A zero Timeout
// means 2s, the historical per-member dial bound.
func NewConnCache(opts DialOptions) *ConnCache {
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	return &ConnCache{
		opts:    opts,
		conns:   make(map[string]*Client),
		dialing: make(map[string]*dialWait),
	}
}

// Get returns the cached client for addr, dialing it if needed. Callers that
// observe a broken client should Drop it and retry.
func (cc *ConnCache) Get(addr string) (*Client, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := cc.conns[addr]; ok {
		cc.mu.Unlock()
		return c, nil
	}
	if w, ok := cc.dialing[addr]; ok {
		cc.mu.Unlock()
		<-w.done
		return w.c, w.err
	}
	w := &dialWait{done: make(chan struct{})}
	cc.dialing[addr] = w
	cc.mu.Unlock()

	c, err := DialOpts(addr, cc.opts)

	cc.mu.Lock()
	delete(cc.dialing, addr)
	if err == nil {
		if cc.closed {
			c.Close()
			c, err = nil, ErrClosed
		} else {
			cc.conns[addr] = c
		}
	}
	cc.mu.Unlock()
	w.c, w.err = c, err
	close(w.done)
	return c, err
}

// Cached returns the client cached for addr, or nil when there is none. It
// never dials, so it never blocks on a peer.
func (cc *ConnCache) Cached(addr string) *Client {
	cc.mu.Lock()
	c := cc.conns[addr]
	cc.mu.Unlock()
	return c
}

// Drop closes and forgets the cached client for addr, if any. An in-flight
// dial for addr is unaffected; its client will be cached when it lands.
func (cc *ConnCache) Drop(addr string) {
	cc.mu.Lock()
	c, ok := cc.conns[addr]
	if ok {
		delete(cc.conns, addr)
	}
	cc.mu.Unlock()
	if ok {
		c.Close()
	}
}

// Close closes every cached client. Subsequent Gets fail with ErrClosed;
// clients handed out by dials still in flight are closed as they land.
func (cc *ConnCache) Close() error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil
	}
	cc.closed = true
	conns := make([]*Client, 0, len(cc.conns))
	for _, c := range cc.conns {
		conns = append(conns, c)
	}
	cc.conns = make(map[string]*Client)
	cc.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}
