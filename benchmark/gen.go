package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
)

const (
	smallEcho  = 64
	bigEcho    = 64 << 10
	heavyEvery = 16 // one echo in every heavyEvery is bigEcho bytes
	// Key popularity is Zipf with exponent zipfS and offset zipfV: skewed,
	// but with no single key hot enough to serialize the store's writes.
	zipfS = 1.01
	zipfV = 16
)

// echoSlot echoes seeded random bytes: in each block of heavyEvery calls
// one, at a seeded position, is bigEcho bytes and the rest smallEcho.
type echoSlot struct {
	rng        *rand.Rand
	small, big []byte
	n, heavyAt int
	cur        []byte
}

func newEchoSlot(rng *rand.Rand) *echoSlot {
	e := &echoSlot{rng: rng, small: make([]byte, smallEcho), big: make([]byte, bigEcho)}
	rng.Read(e.small)
	rng.Read(e.big)
	return e
}

func (e *echoSlot) next(id uint64) (string, []byte, bool) {
	if e.n%heavyEvery == 0 {
		e.heavyAt = e.rng.Intn(heavyEvery)
	}
	heavy := e.n%heavyEvery == e.heavyAt
	e.n++
	buf := e.small
	if heavy {
		buf = e.big
	}
	binary.LittleEndian.PutUint64(buf, id)
	buf[hdrLen+e.rng.Intn(len(buf)-hdrLen)] = byte(e.rng.Uint32())
	e.cur = buf
	return "echo", buf, heavy
}

func (e *echoSlot) done(reply []byte, err error, chk *checker) {
	if err != nil {
		// An abandoned attempt may still reference the request bytes, so
		// the lane stops reusing them.
		fresh := bytes.Clone(e.cur)
		if len(fresh) == smallEcho {
			e.small = fresh
		} else {
			e.big = fresh
		}
		return
	}
	if !bytes.Equal(reply, e.cur) {
		chk.fail("echo: reply of %d bytes differs from its %d-byte request (id %d)",
			len(reply), len(e.cur), binary.LittleEndian.Uint64(e.cur))
	}
}

// nopSlot issues the empty method; the resize probe uses it as light load.
type nopSlot struct{ buf []byte }

func (n *nopSlot) next(id uint64) (string, []byte, bool) {
	n.buf = binary.LittleEndian.AppendUint64(make([]byte, 0, hdrLen), id)
	return "nop", n.buf, false
}

func (n *nopSlot) done(reply []byte, err error, chk *checker) {
	if err == nil && !bytes.Equal(reply, n.buf) {
		chk.fail("nop: reply does not echo the request id")
	}
}

// keyspace is the state workloads' data: nKeys keys, where key k belongs
// to caller k % callers and only its owner writes it, and per-caller
// counters. It remembers what each owner wrote and had acknowledged.
type keyspace struct {
	callers, nKeys, ctrsPer int
	parts                   []*partition
}

type partition struct {
	mu    sync.Mutex
	acked []uint64 // own index → highest acknowledged seq
	next  []uint64 // own index → highest seq issued
	busy  []bool   // own index → a write is in flight
	// ctrAcked holds, per own counter, the sum of acknowledged deltas.
	ctrAcked []int64
}

func newKeyspace(callers, nKeys, ctrsPer int) *keyspace {
	ks := &keyspace{callers: callers, nKeys: nKeys, ctrsPer: ctrsPer}
	own := nKeys / callers
	for range callers {
		ks.parts = append(ks.parts, &partition{
			acked:    make([]uint64, own),
			next:     make([]uint64, own),
			busy:     make([]bool, own),
			ctrAcked: make([]int64, ctrsPer),
		})
	}
	return ks
}

func (ks *keyspace) owner(k int) (caller, idx int) { return k % ks.callers, k / ks.callers }
func (ks *keyspace) key(caller, idx int) int       { return idx*ks.callers + caller }
func (ks *keyspace) ctr(caller, j int) int         { return caller*ks.ctrsPer + j }

// The stateful workload's data: stateKeys keys, twice the session cache's
// default MaxEntries so that both hits and misses happen, and ctrsPer
// counters per caller. putShare and addShare of its calls are writes; the
// rest are gets.
const (
	stateKeys = 8192
	ctrsPer   = 16
	putShare  = 0.04
	addShare  = 0.01
)

// stateSlot issues gets, puts and adds on Zipf-distributed keys: reads on
// the whole keyspace, writes on the caller's own partition.
type stateSlot struct {
	ks         *keyspace
	caller     int
	rng        *rand.Rand
	zAll, zOwn *rand.Zipf
	buf        []byte

	// the invocation in flight
	kind   byte // 'p', 'g', 'a'
	k, idx int
	seq    uint64
	delta  int64
	minSeq uint64
}

func newStateSlot(ks *keyspace, caller int, rng *rand.Rand) *stateSlot {
	return &stateSlot{
		ks: ks, caller: caller, rng: rng,
		zAll: rand.NewZipf(rng, zipfS, zipfV, uint64(ks.nKeys-1)),
		zOwn: rand.NewZipf(rng, zipfS, zipfV, uint64(ks.nKeys/ks.callers-1)),
		buf:  make([]byte, argOff+valueSize),
	}
}

func (s *stateSlot) next(id uint64) (string, []byte, bool) {
	binary.LittleEndian.PutUint64(s.buf, id)
	r := s.rng.Float64()
	if r < putShare {
		if s.pickWrite() {
			binary.LittleEndian.PutUint32(s.buf[keyOff:], uint32(s.k))
			encodeValue(s.buf[argOff:], s.k, s.caller, s.seq)
			return "put", s.buf, true
		}
	} else if r < putShare+addShare {
		s.kind = 'a'
		s.idx = s.rng.Intn(s.ks.ctrsPer)
		s.delta = 1 + s.rng.Int63n(9)
		binary.LittleEndian.PutUint32(s.buf[keyOff:], uint32(s.ks.ctr(s.caller, s.idx)))
		binary.LittleEndian.PutUint64(s.buf[argOff:], uint64(s.delta))
		return "add", s.buf[:argOff+8], true
	}
	s.kind = 'g'
	s.k = int(s.zAll.Uint64())
	s.minSeq = 0
	if c, idx := s.ks.owner(s.k); c == s.caller {
		p := s.ks.parts[c]
		p.mu.Lock()
		s.minSeq = p.acked[idx]
		p.mu.Unlock()
	}
	binary.LittleEndian.PutUint32(s.buf[keyOff:], uint32(s.k))
	return "get", s.buf[:argOff], false
}

// pickWrite claims one of the caller's keys with no write in flight, so a
// caller never races itself on a key; false when every draw was busy.
func (s *stateSlot) pickWrite() bool {
	p := s.ks.parts[s.caller]
	p.mu.Lock()
	defer p.mu.Unlock()
	for range 8 {
		idx := int(s.zOwn.Uint64())
		if p.busy[idx] {
			continue
		}
		p.busy[idx] = true
		p.next[idx]++
		s.kind, s.idx, s.seq = 'p', idx, p.next[idx]
		s.k = s.ks.key(s.caller, idx)
		return true
	}
	return false
}

func (s *stateSlot) done(reply []byte, err error, chk *checker) {
	if err != nil {
		// An abandoned attempt may still reference the request bytes.
		s.buf = bytes.Clone(s.buf)
	}
	p := s.ks.parts[s.caller]
	switch s.kind {
	case 'p':
		p.mu.Lock()
		p.busy[s.idx] = false
		if err == nil {
			p.acked[s.idx] = s.seq
		}
		p.mu.Unlock()
	case 'a':
		p.mu.Lock()
		if err == nil {
			p.ctrAcked[s.idx] += s.delta
		}
		p.mu.Unlock()
		if err == nil && len(reply) != 8 {
			chk.fail("add: reply is %d bytes, want 8", len(reply))
		}
	case 'g':
		if err != nil {
			return
		}
		s.checkRead(reply, chk)
	}
}

// checkRead verifies a read: it decodes and belongs to its key and owner,
// is no newer than anything the owner has issued, and, on the caller's own
// key, is no older than its last write acknowledged before the read.
func (s *stateSlot) checkRead(v []byte, chk *checker) {
	k, w, seq, err := decodeValue(v)
	if err != nil {
		chk.fail("get key %d: %v", s.k, err)
		return
	}
	c, idx := s.ks.owner(s.k)
	if k != s.k || w != c {
		chk.fail("get key %d: value belongs to key %d writer %d", s.k, k, w)
		return
	}
	if seq < s.minSeq {
		chk.orderFail("get key %d: read seq %d older than acknowledged seq %d", s.k, seq, s.minSeq)
	}
	p := s.ks.parts[c]
	p.mu.Lock()
	issued := p.next[idx]
	p.mu.Unlock()
	if seq > issued {
		chk.fail("get key %d: read seq %d never written (last issued %d)", s.k, seq, issued)
	}
}

// checkFinal verifies the store after the load stopped. Every key holds a
// value of its own that its owner issued, and every counter at least its
// acknowledged sum. When each invocation ran exactly once (exactlyOnce:
// the stub retried none and none failed), it also checks that each key
// holds its highest acknowledged seq and that no counter exceeds its
// acknowledged sum. Otherwise those two need not hold: an attempt the stub
// abandoned may land after a later acknowledged write, and a retried add
// may count twice (core.State.AddInt).
func (ks *keyspace) checkFinal(get func(k int) ([]byte, error), getCtr func(j int) (int64, error), exactlyOnce bool, chk *checker) {
	for c, p := range ks.parts {
		for idx := range p.acked {
			k := ks.key(c, idx)
			v, err := get(k)
			if err != nil {
				chk.fail("final read key %d: %v", k, err)
				continue
			}
			vk, w, seq, err := decodeValue(v)
			switch {
			case err != nil:
				chk.fail("final key %d: %v", k, err)
			case vk != k || w != c:
				chk.fail("final key %d: value belongs to key %d writer %d", k, vk, w)
			case seq > p.next[idx]:
				chk.fail("final key %d: holds seq %d, never written (last issued %d)", k, seq, p.next[idx])
			case exactlyOnce && seq != p.acked[idx]:
				chk.fail("final key %d: holds seq %d, highest acknowledged %d", k, seq, p.acked[idx])
			}
		}
		for j := range p.ctrAcked {
			got, err := getCtr(ks.ctr(c, j))
			if err != nil {
				chk.fail("final read counter %d: %v", ks.ctr(c, j), err)
				continue
			}
			if got < p.ctrAcked[j] || (exactlyOnce && got > p.ctrAcked[j]) {
				chk.fail("counter %d: total %d, acknowledged sum %d", ks.ctr(c, j), got, p.ctrAcked[j])
			}
		}
	}
}
