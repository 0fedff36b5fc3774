package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"elasticrmi/internal/transport"
)

// defaultCallTimeout bounds individual store operations.
const defaultCallTimeout = 10 * time.Second

// Client talks to a single store node. Safe for concurrent use.
type Client struct {
	conn *transport.Client
}

// NewClient connects to the store node at addr.
func NewClient(addr string) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore client: %w", err)
	}
	return &Client{conn: conn}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// shedRetries bounds how many times a call the server provably never
// executed (admission shed, queue expiry) is retried before the error
// surfaces to the caller.
const shedRetries = 5

// callShedRetry runs do, retrying with a short doubling backoff while it
// fails with transport.ErrOverloaded or transport.ErrExpired. Both refusal
// statuses guarantee the handler never ran, so the retry is safe even for
// non-idempotent operations (Put, AddInt64, TryLock). Treating them as
// fatal would be wrong twice over: an ordinary caller would surface a
// transient queue blip as an operation failure, and a session keepalive or
// invalidation ack hitting one shed reply would tear down a healthy
// session.
func callShedRetry(sleep func(time.Duration), do func() error) error {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := do()
		if err == nil || attempt >= shedRetries ||
			(!errors.Is(err, transport.ErrOverloaded) && !errors.Is(err, transport.ErrExpired)) {
			return err
		}
		sleep(backoff)
		backoff *= 2
	}
}

// call is the package's one client call path (Client and Session): it
// invokes method on conn, retries refusals the server provably never
// executed, and maps wire error codes back to their sentinels.
func call(conn *transport.Client, method string, req transport.Marshaler, reply transport.Unmarshaler) error {
	return unwireError(callShedRetry(time.Sleep, func() error {
		return conn.CallDecode(ServiceName, method, req, reply, defaultCallTimeout)
	}))
}

// pair is one call's request and reply. Both escape into the transport's
// codec interfaces, so the hot call paths recycle pairs through a pool
// instead of allocating them per call: the server's rpc adapter (one pool
// per method), and on the client Put, AddInt64 and Session.getLease. A
// pair is zeroed before it goes back, since decoded []byte fields view a
// frame.
type pair[Q, R any] struct {
	req Q
	rep R
}

var (
	putCalls = sync.Pool{New: func() any { return new(pair[putReq, putReply]) }}
	addCalls = sync.Pool{New: func() any { return new(pair[addReq, addReply]) }}
)

// Get fetches key.
func (c *Client) Get(key string) (Versioned, error) {
	var rep getReply
	if err := call(c.conn, "Get", &getReq{Key: key}, &rep); err != nil {
		return Versioned{}, err
	}
	return rep.Val, nil
}

// Put stores value at key and returns the new version. It borrows key and
// value (see Shared).
func (c *Client) Put(key string, value []byte) (uint64, error) {
	pc := putCalls.Get().(*pair[putReq, putReply])
	pc.req = putReq{Key: key, Val: value}
	err := call(c.conn, "Put", &pc.req, &pc.rep)
	ver := pc.rep.Version
	*pc = pair[putReq, putReply]{}
	putCalls.Put(pc)
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	var rep delReply
	return call(c.conn, "Delete", &delReq{Key: key}, &rep)
}

// CompareAndSwap conditionally replaces key at expectVersion.
func (c *Client) CompareAndSwap(key string, value []byte, expectVersion uint64) (uint64, error) {
	var rep casReply
	if err := call(c.conn, "CAS", &casReq{Key: key, Val: value, ExpectVersion: expectVersion}, &rep); err != nil {
		return 0, err
	}
	return rep.Version, nil
}

// AddInt64 atomically adds delta to the integer at key. It borrows key
// (see Shared).
func (c *Client) AddInt64(key string, delta int64) (int64, error) {
	ac := addCalls.Get().(*pair[addReq, addReply])
	ac.req = addReq{Key: key, Delta: delta}
	err := call(c.conn, "Add", &ac.req, &ac.rep)
	v := ac.rep.Value
	*ac = pair[addReq, addReply]{}
	addCalls.Put(ac)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// Keys lists keys with the given prefix.
func (c *Client) Keys(prefix string) ([]string, error) {
	var rep keysReply
	if err := call(c.conn, "Keys", &keysReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Keys, nil
}

// TryLock attempts to take the named lock.
func (c *Client) TryLock(name, owner string, lease time.Duration) error {
	var rep lockReply
	return call(c.conn, "TryLock", &lockReq{Name: name, Owner: owner, Lease: lease}, &rep)
}

// Unlock releases the named lock.
func (c *Client) Unlock(name, owner string) error {
	var rep unlockReply
	return call(c.conn, "Unlock", &unlockReq{Name: name, Owner: owner}, &rep)
}

// apply ships a record stream, a rebalance import or cleanup, to the
// node's Replicate handler. Unlike a forward it runs under the ordinary
// call timeout: a bulk stream may be large, and no write waits on it.
func (c *Client) apply(recs []byte) error {
	var rep replReply
	return call(c.conn, "Replicate", &replReq{Recs: recs}, &rep)
}

// replicate forwards one write's record to a backup. It uses a timeout
// much shorter than ordinary calls so a hung backup costs the primary one
// bounded stall, not one per acknowledged write.
func (c *Client) replicate(r *replReq) error {
	var rep replReply
	return unwireError(c.conn.CallDecode(ServiceName, "Replicate", r, &rep, replicateTimeout))
}
