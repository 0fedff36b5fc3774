package kvstore

import (
	"errors"
	"fmt"
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

// Get fetches key.
func (c *Client) Get(key string) (Versioned, error) {
	var rep getReply
	if err := call(c.conn, "Get", &getReq{Key: key}, &rep); err != nil {
		return Versioned{}, err
	}
	return rep.Val, nil
}

// Put stores value at key and returns the new version.
func (c *Client) Put(key string, value []byte) (uint64, error) {
	var rep putReply
	if err := call(c.conn, "Put", &putReq{Key: key, Val: value}, &rep); err != nil {
		return 0, err
	}
	return rep.Version, nil
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

// AddInt64 atomically adds delta to the integer at key.
func (c *Client) AddInt64(key string, delta int64) (int64, error) {
	var rep addReply
	if err := call(c.conn, "Add", &addReq{Key: key, Delta: delta}, &rep); err != nil {
		return 0, err
	}
	return rep.Value, nil
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

// Export snapshots entries with the prefix (used by shard migration).
func (c *Client) Export(prefix string) (map[string]Versioned, error) {
	var rep exportReply
	if err := call(c.conn, "Export", &exportReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Entries, nil
}

// Import installs entries preserving versions (used by shard migration).
func (c *Client) Import(entries map[string]Versioned) error {
	var rep importReply
	return call(c.conn, "Import", &importReq{Entries: entries}, &rep)
}

// ExportLocks snapshots unexpired lock leases with the prefix (owner,
// absolute expiry and sequence intact) — the lock-table counterpart of
// Export, used by shard migration.
func (c *Client) ExportLocks(prefix string) (map[string]LockInfo, error) {
	var rep exportLocksReply
	if err := call(c.conn, "ExportLocks", &exportLocksReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Locks, nil
}

// ImportLocks installs lock leases (used by shard migration).
func (c *Client) ImportLocks(locks map[string]LockInfo) error {
	var rep importLocksReply
	return call(c.conn, "ImportLocks", &importLocksReq{Locks: locks}, &rep)
}

// replicate forwards one write's resulting state to a backup. It uses a
// timeout much shorter than ordinary calls so a hung backup costs the
// primary one bounded stall, not one per acknowledged write.
func (c *Client) replicate(r replReq) error {
	var rep replReply
	return unwireError(c.conn.CallDecode(ServiceName, "Replicate", &r, &rep, replicateTimeout))
}
