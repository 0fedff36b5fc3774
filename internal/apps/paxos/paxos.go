// Package paxos implements the Paxos consensus protocol (paper §5.2,
// following the Kirsch & Amir "Paxos for Systems Builders" formulation) as
// an ElasticRMI elastic class: the pool members are the replicas — each one
// proposer, acceptor and learner — and the pool appears to clients as a
// single consensus service whose Propose method runs full Paxos rounds
// (Prepare/Promise, Accept/Accepted, Decide) over the runtime's
// member-to-member peer messages.
//
// Safety: a slot decides at most one value, guaranteed by ballot-ordered
// promises from majorities of acceptors. Decided values are additionally
// recorded in the pool's shared state so members added by elastic scaling
// learn the history (the ledger is the elastic object's shared state).
//
// Elasticity is fine-grained: ChangePoolSize watches the proposal backlog
// and round latency.
package paxos

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

// Exported errors.
var (
	// ErrNoQuorum is returned when a round cannot reach a majority.
	ErrNoQuorum = errors.New("paxos: no quorum")
	// ErrNotDecided is returned by Get for an undecided slot.
	ErrNotDecided = errors.New("paxos: slot not decided")
)

// Remote method names (client-facing).
const (
	// MethodPropose appends a value to the replicated log:
	// (ProposeArgs) -> ProposeReply.
	MethodPropose = "Propose"
	// MethodGet reads a decided slot: (GetArgs) -> GetReply.
	MethodGet = "Get"
	// MethodStatus reports progress: (core.Empty) -> StatusReply.
	MethodStatus = "Status"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in paxos.go -out paxos_ermi.go

// Argument/reply structs.
//
//ermi:codec
type (
	// ProposeArgs carries the client value.
	ProposeArgs struct{ Value []byte }
	// ProposeReply reports the slot where the value was decided.
	ProposeReply struct {
		Slot  int64
		Value []byte
	}
	// GetArgs names a slot.
	GetArgs struct{ Slot int64 }
	// GetReply returns the decided value of the slot.
	GetReply struct{ Value []byte }
	// StatusReply reports the replica's view of progress.
	StatusReply struct {
		Decided  int64
		NextSlot int64
	}
)

// peer message topic and kinds.
const peerTopic = "paxos"

type msgKind int

const (
	msgPrepare msgKind = iota + 1
	msgPromise
	msgAccept
	msgAccepted
	msgDecide
)

// wire is every Paxos message; unused fields are zero. A decoded wire's
// byte fields are views into the peer message, which the runtime hands over
// as an owned copy.
//
//ermi:codec
type wire struct {
	Kind    msgKind
	Slot    int64
	Ballot  int64
	From    string // proposer skeleton address for replies
	OK      bool
	AccBal  int64  // highest ballot accepted by the responding acceptor
	AccVal  []byte // value accepted at AccBal
	Value   []byte
	Promote int64 // responding acceptor's promised ballot (for ballot bumping)
}

// acceptorState is per-slot acceptor bookkeeping.
type acceptorState struct {
	promised int64
	accBal   int64
	accVal   []byte
}

type roundKey struct {
	slot   int64
	ballot int64
	kind   msgKind
}

// Config tunes the replica.
type Config struct {
	// RoundTimeout bounds one Prepare or Accept phase. Default 2s.
	RoundTimeout time.Duration
	// MaxRetries bounds ballot/slot retries per proposal. Default 16.
	MaxRetries int
	// BacklogHigh is the pending-proposal count per replica that triggers
	// growth. Default 16.
	BacklogHigh int64
	// IdleRate is the per-replica proposal rate below which the pool
	// shrinks. Default 2.
	IdleRate float64
}

func (c Config) withDefaults() Config {
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 16
	}
	if c.BacklogHigh == 0 {
		c.BacklogHigh = 16
	}
	if c.IdleRate == 0 {
		c.IdleRate = 2
	}
	return c
}

// Replica is one member of the elastic consensus pool.
type Replica struct {
	ctx *core.MemberContext
	cfg Config
	mux *core.Mux

	mu        sync.Mutex
	acceptors map[int64]*acceptorState
	decided   map[int64][]byte
	waiters   map[roundKey]chan wire
	ballotSeq int64

	pending atomic.Int64
}

var (
	_ core.Object    = (*Replica)(nil)
	_ core.PoolSizer = (*Replica)(nil)
)

// New creates the replica factory for core.NewPool.
func New(cfg Config) core.Factory {
	cfg = cfg.withDefaults()
	return func(ctx *core.MemberContext) (core.Object, error) {
		r := &Replica{
			ctx:       ctx,
			cfg:       cfg,
			mux:       core.NewMux(),
			acceptors: make(map[int64]*acceptorState),
			decided:   make(map[int64][]byte),
			waiters:   make(map[roundKey]chan wire),
		}
		core.Handle(r.mux, MethodPropose, r.propose)
		core.Handle(r.mux, MethodGet, r.get)
		core.Handle(r.mux, MethodStatus, r.status)
		ctx.SetPeerHandler(r.onPeer)
		return r, nil
	}
}

// HandleCall implements core.Object.
func (r *Replica) HandleCall(method string, arg []byte) ([]byte, error) {
	return r.mux.HandleCall(method, arg)
}

// nextBallot returns a ballot unique to this replica and increasing.
func (r *Replica) nextBallot() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ballotSeq++
	return r.ballotSeq*4096 + r.ctx.UID%4096
}

// quorumTargets returns the skeleton addresses of the acceptors (all live
// members, including self) and the majority size.
func (r *Replica) quorumTargets() ([]string, int, error) {
	roster := r.ctx.Roster()
	var addrs []string
	for _, m := range roster {
		if !m.Draining || m.Addr == r.ctx.Addr() {
			addrs = append(addrs, m.Addr)
		}
	}
	if len(addrs) == 0 {
		return nil, 0, errors.New("paxos: empty roster")
	}
	return addrs, len(addrs)/2 + 1, nil
}

// propose appends the client's value to the log: it claims a fresh slot and
// runs Paxos; if another proposer's value wins the slot, it retries on the
// next slot until its own value is decided.
func (r *Replica) propose(a ProposeArgs) (ProposeReply, error) {
	if len(a.Value) == 0 {
		return ProposeReply{}, errors.New("paxos: empty value")
	}
	r.pending.Add(1)
	defer r.pending.Add(-1)

	for attempt := 0; attempt < r.cfg.MaxRetries; attempt++ {
		slot, err := r.ctx.State.AddInt("slot-alloc", 1)
		if err != nil {
			return ProposeReply{}, err
		}
		decidedVal, err := r.runSlot(slot, a.Value)
		if err != nil {
			return ProposeReply{}, err
		}
		if string(decidedVal) == string(a.Value) {
			return ProposeReply{Slot: slot, Value: decidedVal}, nil
		}
		// The slot decided someone else's value; try the next slot.
	}
	return ProposeReply{}, fmt.Errorf("paxos: value not decided after %d attempts", r.cfg.MaxRetries)
}

// ProposeAt runs consensus for an explicit slot (exported for safety tests:
// concurrent proposers to the same slot must decide a single value). It
// returns the value the slot decided, which may belong to a competitor.
func (r *Replica) ProposeAt(slot int64, value []byte) ([]byte, error) {
	return r.runSlot(slot, value)
}

// runSlot drives one slot to a decision, returning the decided value.
func (r *Replica) runSlot(slot int64, value []byte) ([]byte, error) {
	if v, ok := r.getDecided(slot); ok {
		return v, nil
	}
	ballot := r.nextBallot()
	for attempt := 0; attempt < r.cfg.MaxRetries; attempt++ {
		decided, val, err := r.tryBallot(slot, ballot, value)
		if err != nil {
			return nil, err
		}
		if decided {
			return val, nil
		}
		// Preempted: adopt a ballot above everything we saw.
		ballot = r.nextBallot()
		if v, ok := r.getDecided(slot); ok {
			return v, nil
		}
	}
	return nil, fmt.Errorf("paxos: slot %d: %w", slot, ErrNoQuorum)
}

// tryBallot runs Phase 1 and Phase 2 for (slot, ballot). It returns
// (true, decidedValue) on success and (false, nil) when preempted by a
// higher ballot.
func (r *Replica) tryBallot(slot, ballot int64, value []byte) (bool, []byte, error) {
	targets, quorum, err := r.quorumTargets()
	if err != nil {
		return false, nil, err
	}
	me := r.ctx.Addr()

	// Phase 1: Prepare / Promise.
	promiseCh := r.openWaiter(roundKey{slot, ballot, msgPromise}, len(targets))
	defer r.closeWaiter(roundKey{slot, ballot, msgPromise})
	r.fanout(targets, wire{Kind: msgPrepare, Slot: slot, Ballot: ballot, From: me})

	promises := 0
	var bestBal int64
	chosen := value
	deadline := time.NewTimer(r.cfg.RoundTimeout)
	defer deadline.Stop()
	for promises < quorum {
		select {
		case m := <-promiseCh:
			if !m.OK {
				return false, nil, nil // preempted
			}
			promises++
			if m.AccBal > bestBal && len(m.AccVal) > 0 {
				bestBal = m.AccBal
				chosen = m.AccVal
			}
		case <-deadline.C:
			return false, nil, fmt.Errorf("paxos: prepare slot %d ballot %d: %w", slot, ballot, ErrNoQuorum)
		}
	}

	// Phase 2: Accept / Accepted.
	acceptCh := r.openWaiter(roundKey{slot, ballot, msgAccepted}, len(targets))
	defer r.closeWaiter(roundKey{slot, ballot, msgAccepted})
	r.fanout(targets, wire{Kind: msgAccept, Slot: slot, Ballot: ballot, Value: chosen, From: me})

	accepts := 0
	deadline2 := time.NewTimer(r.cfg.RoundTimeout)
	defer deadline2.Stop()
	for accepts < quorum {
		select {
		case m := <-acceptCh:
			if !m.OK {
				return false, nil, nil // preempted
			}
			accepts++
		case <-deadline2.C:
			return false, nil, fmt.Errorf("paxos: accept slot %d ballot %d: %w", slot, ballot, ErrNoQuorum)
		}
	}

	// Decided: persist to the shared ledger and tell the learners.
	r.recordDecision(slot, chosen)
	if err := r.ctx.State.PutBytes("decided/"+strconv.FormatInt(slot, 10), chosen); err != nil {
		return false, nil, err
	}
	if _, err := r.ctx.State.AddInt("decided-count", 1); err != nil {
		return false, nil, err
	}
	r.fanout(targets, wire{Kind: msgDecide, Slot: slot, Value: chosen, From: me})
	return true, chosen, nil
}

// fanout sends m to every target (self-delivery included).
func (r *Replica) fanout(targets []string, m wire) {
	payload := transport.Encode(&m)
	for _, t := range targets {
		_ = r.ctx.SendPeer(t, peerTopic, payload)
	}
}

func (r *Replica) openWaiter(k roundKey, capacity int) chan wire {
	ch := make(chan wire, capacity)
	r.mu.Lock()
	r.waiters[k] = ch
	r.mu.Unlock()
	return ch
}

func (r *Replica) closeWaiter(k roundKey) {
	r.mu.Lock()
	delete(r.waiters, k)
	r.mu.Unlock()
}

// onPeer handles every incoming Paxos message; it must not block.
func (r *Replica) onPeer(from, topic string, payload []byte) {
	if topic != peerTopic {
		return
	}
	var m wire
	if err := transport.Decode(payload, &m); err != nil {
		return
	}
	switch m.Kind {
	case msgPrepare:
		r.onPrepare(m)
	case msgAccept:
		r.onAccept(m)
	case msgPromise, msgAccepted:
		r.mu.Lock()
		ch, ok := r.waiters[roundKey{m.Slot, m.Ballot, m.Kind}]
		r.mu.Unlock()
		if ok {
			select {
			case ch <- m:
			default:
			}
		}
	case msgDecide:
		r.recordDecision(m.Slot, m.Value)
	}
}

// onPrepare is the acceptor's Phase 1 handler.
func (r *Replica) onPrepare(m wire) {
	r.mu.Lock()
	st := r.acceptor(m.Slot)
	resp := wire{Kind: msgPromise, Slot: m.Slot, Ballot: m.Ballot}
	if m.Ballot > st.promised {
		st.promised = m.Ballot
		resp.OK = true
		resp.AccBal = st.accBal
		resp.AccVal = st.accVal
	} else {
		resp.OK = false
		resp.Promote = st.promised
	}
	r.mu.Unlock()
	r.reply(m.From, resp)
}

// onAccept is the acceptor's Phase 2 handler.
func (r *Replica) onAccept(m wire) {
	r.mu.Lock()
	st := r.acceptor(m.Slot)
	resp := wire{Kind: msgAccepted, Slot: m.Slot, Ballot: m.Ballot}
	if m.Ballot >= st.promised {
		st.promised = m.Ballot
		st.accBal = m.Ballot
		st.accVal = append([]byte(nil), m.Value...)
		resp.OK = true
	} else {
		resp.OK = false
		resp.Promote = st.promised
	}
	r.mu.Unlock()
	r.reply(m.From, resp)
}

// acceptor returns the slot's acceptor state; caller holds r.mu.
func (r *Replica) acceptor(slot int64) *acceptorState {
	st, ok := r.acceptors[slot]
	if !ok {
		st = &acceptorState{}
		r.acceptors[slot] = st
	}
	return st
}

func (r *Replica) reply(to string, m wire) {
	_ = r.ctx.SendPeer(to, peerTopic, transport.Encode(&m))
}

func (r *Replica) recordDecision(slot int64, value []byte) {
	r.mu.Lock()
	if _, ok := r.decided[slot]; !ok {
		r.decided[slot] = append([]byte(nil), value...)
	}
	r.mu.Unlock()
}

func (r *Replica) getDecided(slot int64) ([]byte, bool) {
	r.mu.Lock()
	v, ok := r.decided[slot]
	r.mu.Unlock()
	if ok {
		return v, true
	}
	// Fall back to the shared ledger (scaling may have added this member
	// after the decision).
	raw, err := r.ctx.State.GetBytes("decided/" + strconv.FormatInt(slot, 10))
	if err != nil || raw == nil {
		return nil, false
	}
	r.recordDecision(slot, raw)
	return raw, true
}

func (r *Replica) get(a GetArgs) (GetReply, error) {
	v, ok := r.getDecided(a.Slot)
	if !ok {
		return GetReply{}, fmt.Errorf("slot %d: %w", a.Slot, ErrNotDecided)
	}
	return GetReply{Value: v}, nil
}

func (r *Replica) status(core.Empty) (StatusReply, error) {
	count, err := r.ctx.State.GetInt("decided-count")
	if err != nil {
		return StatusReply{}, err
	}
	next, err := r.ctx.State.GetInt("slot-alloc")
	if err != nil {
		return StatusReply{}, err
	}
	return StatusReply{Decided: count, NextSlot: next + 1}, nil
}

// ChangePoolSize implements core.PoolSizer with consensus-specific signals:
// the proposal backlog and observed round latency.
func (r *Replica) ChangePoolSize() int {
	stats := r.ctx.MethodCallStats()
	prop := stats[MethodPropose]
	backlog := r.pending.Load()
	switch {
	case backlog > 2*r.cfg.BacklogHigh:
		return 2
	case backlog > r.cfg.BacklogHigh || prop.AvgLatency > 4*r.cfg.RoundTimeout/5:
		return 1
	case prop.RatePerSec < r.cfg.IdleRate && backlog == 0:
		return -1
	default:
		return 0
	}
}
