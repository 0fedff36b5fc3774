package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/simclock"
)

// State is the shared-state accessor of an elastic class. In the paper the
// preprocessor rewrites reads and writes of instance and static fields into
// get/put calls on HyperDex, namespacing keys as "Class$field", and rewrites
// synchronized methods into acquire/release of a per-class lock (Fig. 6).
// State exposes exactly those operations. As in the paper, State provides
// per-operation strong consistency and per-class mutual exclusion, but no
// transactional (ACID) execution across operations.
type State struct {
	class string
	owner string
	store kvstore.Shared
	clock simclock.Clock
	lease time.Duration
	// acqSeq makes each lock acquisition's owner id unique: the store's
	// TryLock treats a repeated acquisition by the same owner as a lease
	// renewal, which must never happen for two concurrent critical sections
	// on the same member.
	acqSeq atomic.Int64
}

// acquireOwner returns a per-acquisition unique lock owner id.
func (s *State) acquireOwner() string {
	return s.owner + "#" + strconv.FormatInt(s.acqSeq.Add(1), 10)
}

// withRetry runs op, retrying with exponential backoff while the store
// reports its shard unavailable — the window in which the cluster is
// promoting a backup after a node loss. Field access and lock traffic of
// elastic objects thereby survive a store-node failure instead of
// surfacing a transient infrastructure error to application code. Other
// errors (and exhaustion of the retry budget) pass through.
func (s *State) withRetry(op func() error) error {
	backoff := 5 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !isUnavailable(err) || attempt >= stateRetries {
			return err
		}
		s.clock.Sleep(backoff)
		if backoff < 200*time.Millisecond {
			backoff *= 2
		}
	}
}

// stateRetries bounds withRetry: enough attempts to ride out a failover
// (which completes in well under a second), few enough that a truly dead
// store surfaces within seconds.
const stateRetries = 6

// NewState creates the accessor for an elastic class. owner identifies the
// pool member for lock ownership (e.g. "cache/uid-7"); clock may be nil for
// the wall clock.
func NewState(class, owner string, store kvstore.Shared, clock simclock.Clock) *State {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &State{
		class: class,
		owner: owner,
		store: store,
		clock: clock,
		lease: 30 * time.Second,
	}
}

// Key returns the store key for a field of this class ("Class$field").
func (s *State) Key(field string) string {
	return s.class + "$" + field
}

// The typed accessors below are the preprocessor-generated Store.get and
// Store.put calls of Fig. 6 in the paper. Each is one Get or Put of the
// field's bytes: strings as-is, integers in decimal; a missing field reads
// as the zero value.

// GetBytes reads a field's raw value; missing fields return nil.
func (s *State) GetBytes(field string) ([]byte, error) {
	v, _, err := s.get(field)
	return v, err
}

// get reads a field; ok is false when the field is missing.
func (s *State) get(field string) (value []byte, ok bool, err error) {
	var v kvstore.Versioned
	err = s.withRetry(func() (err error) {
		v, err = s.store.Get(s.Key(field))
		return err
	})
	if err != nil {
		if isNotFound(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("state get %s: %w", field, err)
	}
	return v.Value, true, nil
}

// PutBytes writes a field's raw value.
func (s *State) PutBytes(field string, value []byte) error {
	err := s.withRetry(func() error {
		_, err := s.store.Put(s.Key(field), value)
		return err
	})
	if err != nil {
		return fmt.Errorf("state put %s: %w", field, err)
	}
	return nil
}

// GetInt reads an integer field (0 when missing).
func (s *State) GetInt(field string) (int64, error) {
	v, ok, err := s.get(field)
	if err != nil || !ok {
		return 0, err
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("key %q is not an integer: %w", s.Key(field), err)
	}
	return n, nil
}

// PutInt writes an integer field.
func (s *State) PutInt(field string, value int64) error {
	return s.PutBytes(field, strconv.AppendInt(nil, value, 10))
}

// AddInt atomically adds delta to an integer field and returns the result.
// Note the failover caveat: a retried add whose first attempt was applied
// but not acknowledged counts twice (the store's add is not idempotent);
// counters that must be exact under failures should use CAS loops instead.
func (s *State) AddInt(field string, delta int64) (v int64, err error) {
	err = s.withRetry(func() (err error) {
		v, err = s.store.AddInt64(s.Key(field), delta)
		return err
	})
	return v, err
}

// GetString reads a string field ("" when missing).
func (s *State) GetString(field string) (string, error) {
	v, err := s.GetBytes(field)
	return string(v), err
}

// PutString writes a string field.
func (s *State) PutString(field, value string) error {
	return s.PutBytes(field, []byte(value))
}

// Delete removes a field.
func (s *State) Delete(field string) error {
	return s.withRetry(func() error { return s.store.Delete(s.Key(field)) })
}

// Fields lists the class's stored field names.
func (s *State) Fields() ([]string, error) {
	var keys []string
	err := s.withRetry(func() (err error) {
		keys, err = s.store.Keys(s.class + "$")
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k[len(s.class)+1:])
	}
	return out, nil
}

// Synchronized executes fn while holding the per-class lock, exactly like a
// synchronized method of an elastic class in the paper. It spins with
// backoff until the lock is acquired.
func (s *State) Synchronized(fn func() error) error {
	return s.SynchronizedNamed(s.class, fn)
}

// SynchronizedNamed is Synchronized with an explicit lock name, for
// finer-grained application locks. Contention and shard failover are both
// retried: ErrLockHeld spins with backoff indefinitely (another member is
// in the critical section), while shard unavailability is retried on the
// bounded withRetry budget (a failover in progress) and then surfaces.
func (s *State) SynchronizedNamed(name string, fn func() error) error {
	owner := s.acquireOwner()
	backoff := time.Millisecond
	for {
		err := s.withRetry(func() error { return s.store.TryLock(name, owner, s.lease) })
		if err == nil {
			break
		}
		if !isLockHeld(err) {
			return fmt.Errorf("state lock %s: %w", name, err)
		}
		s.clock.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
	defer func() {
		_ = s.withRetry(func() error { return s.store.Unlock(name, owner) })
	}()
	return fn()
}

// TryLock attempts a named application lock without blocking; callers use it
// to build contention metrics like avgLockAcqFailure of Fig. 5. On success
// it returns a release function and true.
func (s *State) TryLock(name string) (release func() error, ok bool, err error) {
	owner := s.acquireOwner()
	lerr := s.withRetry(func() error { return s.store.TryLock(name, owner, s.lease) })
	if lerr == nil {
		return func() error {
			err := s.withRetry(func() error { return s.store.Unlock(name, owner) })
			if err != nil && errors.Is(err, kvstore.ErrNotLockOwner) {
				// Release is idempotent under failover: if the first attempt
				// applied but its ack was lost, the retry lands on a replica
				// that already holds the release tombstone and reports
				// not-owner — the lock is released either way. (The same
				// answer for an expired-and-stolen lease is also correct:
				// this owner no longer holds it.)
				return nil
			}
			return err
		}, true, nil
	}
	if isLockHeld(lerr) {
		return nil, false, nil
	}
	return nil, false, lerr
}

func isNotFound(err error) bool    { return errors.Is(err, kvstore.ErrNotFound) }
func isLockHeld(err error) bool    { return errors.Is(err, kvstore.ErrLockHeld) }
func isUnavailable(err error) bool { return errors.Is(err, kvstore.ErrUnavailable) }
