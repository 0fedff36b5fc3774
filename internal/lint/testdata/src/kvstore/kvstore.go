// Lock-discipline fixtures. The package is named kvstore so the flagged-
// mutex table binds to these types exactly as it binds to the real ones.
// The ClusterSession pair reproduces the PR 8 regression: dialing a new
// shard session while holding cs.mu stalled every cached read behind one
// unreachable shard.
package kvstore

import (
	"sync"
	"time"

	"transport"
)

type ClusterSession struct {
	mu   sync.Mutex
	sess map[string]*transport.Client
}

// sessionForKeyMutant is the PR 8 bug shape: the dial happens inside the
// critical section.
func (cs *ClusterSession) sessionForKeyMutant(addr string) (*transport.Client, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c := cs.sess[addr]; c != nil {
		return c, nil
	}
	c, err := transport.Dial(addr) // want `blocking operation .*transport\.Dial.* while kvstore\.ClusterSession\.mu is held`
	if err != nil {
		return nil, err
	}
	cs.sess[addr] = c
	return c, nil
}

// sessionForKeyFixed is the shipped fix: check under the lock, dial
// outside it, re-check on insert.
func (cs *ClusterSession) sessionForKeyFixed(addr string) (*transport.Client, error) {
	cs.mu.Lock()
	c := cs.sess[addr]
	cs.mu.Unlock()
	if c != nil {
		return c, nil
	}
	nc, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cur := cs.sess[addr]; cur != nil {
		return cur, nil
	}
	cs.sess[addr] = nc
	return nc, nil
}

type Store struct {
	mu   sync.RWMutex
	vals map[string][]byte
}

// readGate blocks while read-held: deliberately exempt, mirroring the
// cluster's documented read gate that spans RPCs.
func (s *Store) readGate(c *transport.Client) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return c.Call("kv", "Get", nil, time.Second)
}

// flushLocked blocks; rotate calls it under the write lock, so the report
// lands at the call site with the callee chain spelled out.
func (s *Store) flushLocked(c *transport.Client) {
	_, _ = c.Call("kv", "Flush", nil, time.Second)
}

func (s *Store) rotate(c *transport.Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked(c) // want `blocking operation .*Store\.flushLocked.* while kvstore\.Store\.mu is held`
}

// rotateFixed snapshots under the lock and flushes outside it.
func (s *Store) rotateFixed(c *transport.Client) {
	s.mu.Lock()
	n := len(s.vals)
	s.mu.Unlock()
	if n > 0 {
		s.flushLocked(c)
	}
}

func (s *Store) doubleLock() {
	s.mu.Lock()
	s.mu.Lock() // want `acquired while the function may already hold it`
	s.mu.Unlock()
	s.mu.Unlock()
}

func (s *Store) lockAgain() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *Store) reenter() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockAgain() // want `acquires kvstore\.Store\.mu while the function may already hold it`
}

func (s *Store) napLocked() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `blocking operation .*Sleep.* while kvstore\.Store\.mu is held`
	s.mu.Unlock()
}

func (s *Store) startLocked(c *transport.Client) {
	s.mu.Lock()
	c.Start("kv", "Get", nil, 0, nil) // want `blocking operation .*transport call Start.* while kvstore\.Store\.mu is held`
	s.mu.Unlock()
}

func (s *Store) notifyLocked(ch chan struct{}) {
	s.mu.Lock()
	ch <- struct{}{} // want `blocking operation .*channel send.* while kvstore\.Store\.mu is held`
	s.mu.Unlock()
}

// notifyNonBlocking uses select-with-default: never blocks, never
// reported.
func (s *Store) notifyNonBlocking(ch chan struct{}) {
	s.mu.Lock()
	select {
	case ch <- struct{}{}:
	default:
	}
	s.mu.Unlock()
}

// spawnUnderLock starts the blocking work in a goroutine: the held region
// is not charged for it.
func (s *Store) spawnUnderLock(c *transport.Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		_, _ = c.Call("kv", "Get", nil, time.Second)
	}()
}

// unlockInBranch releases on the early-out path and again at the end; the
// dial after the branch runs unlocked on every path that reaches it.
func (s *Store) unlockInBranch(addr string, have bool) (*transport.Client, error) {
	s.mu.Lock()
	if have {
		s.mu.Unlock()
		return nil, nil
	}
	s.mu.Unlock()
	return transport.Dial(addr)
}

// Session / sessionMgr demonstrate acquisition-order cycle detection:
// abForward takes mgr.mu then session.mu, baBackward the reverse. The
// report lands on the edge that closes the cycle (the later acquisition
// seen from the alphabetically first mutex in the cycle).
type Session struct {
	mu sync.Mutex
}

type sessionMgr struct {
	mu sync.Mutex
}

func (m *sessionMgr) abForward(s *Session) {
	m.mu.Lock()
	s.mu.Lock() // want `lock order cycle`
	s.mu.Unlock()
	m.mu.Unlock()
}

func (m *sessionMgr) baBackward(s *Session) {
	s.mu.Lock()
	m.mu.Lock()
	m.mu.Unlock()
	s.mu.Unlock()
}
