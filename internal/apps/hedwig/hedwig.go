// Package hedwig re-implements Apache Hedwig — a topic-based
// publish/subscribe system with guaranteed at-most-once delivery from
// publishers to subscribers (paper §5.2) — as an ElasticRMI elastic class.
//
// Hubs (pool members) partition topic ownership among themselves by
// consistent hashing over the current roster; publishes and subscribes for a
// topic are served by its owning hub, with non-owners forwarding through the
// shared store so clients may contact any member (the elastic pool is a
// single remote object). Delivery is pull-based: Consume atomically claims a
// message cursor, so each message is delivered to a subscriber at most once
// even when consumed through different hubs.
//
// Elasticity is fine-grained: ChangePoolSize watches the undelivered-message
// backlog and the publish rate per hub.
package hedwig

import (
	"errors"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in hedwig.go -out hedwig_ermi.go

// Message is one published message as delivered to a subscriber. Body
// decodes as a zero-copy view into the transport frame.
//
//ermi:codec
type Message struct {
	Topic string
	Seq   int64
	Body  []byte
}

// Remote method names.
const (
	// MethodPublish publishes to a topic: (PublishArgs) -> PublishReply.
	MethodPublish = "Publish"
	// MethodSubscribe registers a subscriber: (SubArgs) -> SubReply.
	MethodSubscribe = "Subscribe"
	// MethodUnsubscribe removes a subscriber: (SubArgs) -> SubReply.
	MethodUnsubscribe = "Unsubscribe"
	// MethodConsume pulls undelivered messages: (ConsumeArgs) -> ConsumeReply.
	MethodConsume = "Consume"
	// MethodBacklog reports undelivered counts: (core.Empty) -> BacklogReply.
	MethodBacklog = "Backlog"
	// MethodOwner reports which hub owns a topic: (TopicArgs) -> OwnerReply.
	MethodOwner = "Owner"
)

// Argument/reply structs for the remote methods; the //ermi:codec mark
// gives them generated binary payload codecs.
//
//ermi:codec
type (
	// PublishArgs carries one publish request.
	PublishArgs struct {
		Topic string
		Body  []byte
	}
	// PublishReply acknowledges a publish with its sequence number.
	PublishReply struct {
		Seq      int64
		OwnerUID int64
	}
	// SubArgs identifies a (topic, subscriber) pair.
	SubArgs struct {
		Topic      string
		Subscriber string
	}
	// SubReply acknowledges a subscribe or unsubscribe.
	SubReply struct{ OK bool }
	// ConsumeArgs pulls up to Max undelivered messages for a subscriber.
	ConsumeArgs struct {
		Topic      string
		Subscriber string
		Max        int
	}
	// ConsumeReply returns the claimed messages.
	ConsumeReply struct {
		Messages []Message
	}
	// TopicArgs names a topic.
	TopicArgs struct{ Topic string }
	// OwnerReply identifies the owning hub of a topic.
	OwnerReply struct {
		OwnerUID  int64
		OwnerAddr string
	}
	// BacklogReply reports the total undelivered backlog visible to the hub.
	BacklogReply struct {
		Undelivered int64
		Topics      int
	}
)

// Config tunes the hub's elasticity logic.
type Config struct {
	// BacklogHighPerHub is the undelivered-message count per hub above
	// which the pool grows. Default 256.
	BacklogHighPerHub int64
	// IdleRate is the per-hub publish rate (msgs/s) below which the pool
	// shrinks. Default 5.
	IdleRate float64
	// RetainLimit caps retained messages per topic (oldest dropped), the
	// at-most-once analogue of a bounded delivery window. Default 4096.
	RetainLimit int64
}

func (c Config) withDefaults() Config {
	if c.BacklogHighPerHub == 0 {
		c.BacklogHighPerHub = 256
	}
	if c.IdleRate == 0 {
		c.IdleRate = 5
	}
	if c.RetainLimit == 0 {
		c.RetainLimit = 4096
	}
	return c
}

// pendingGrace bounds how long consume waits on a sequenced message whose
// body is not yet stored. A publish stores its body right after taking its
// sequence number, so a gap inside the retention window is normally a
// publish still in flight; one that outlasts the grace belongs to a publish
// that failed in between and is skipped.
const pendingGrace = time.Second

// Hub is one member of the elastic Hedwig region.
type Hub struct {
	ctx *core.MemberContext
	cfg Config
	mux *core.Mux

	// gaps records when this hub's consume first stopped at each pending
	// message (keyed by message key).
	gapMu sync.Mutex
	gaps  map[string]time.Time
}

var (
	_ core.Object    = (*Hub)(nil)
	_ core.PoolSizer = (*Hub)(nil)
)

// New creates the hub factory for core.NewPool.
func New(cfg Config) core.Factory {
	cfg = cfg.withDefaults()
	return func(ctx *core.MemberContext) (core.Object, error) {
		h := &Hub{ctx: ctx, cfg: cfg, mux: core.NewMux(), gaps: make(map[string]time.Time)}
		core.Handle(h.mux, MethodPublish, h.publish)
		core.Handle(h.mux, MethodSubscribe, h.subscribe)
		core.Handle(h.mux, MethodUnsubscribe, h.unsubscribe)
		core.Handle(h.mux, MethodConsume, h.consume)
		core.Handle(h.mux, MethodBacklog, h.backlog)
		core.Handle(h.mux, MethodOwner, h.owner)
		return h, nil
	}
}

// HandleCall implements core.Object.
func (h *Hub) HandleCall(method string, arg []byte) ([]byte, error) {
	return h.mux.HandleCall(method, arg)
}

// HandleRequest implements core.RequestHandler: the skeleton dispatches
// through here so codec payload buffers keep their arena lifetime.
func (h *Hub) HandleRequest(req *transport.Request) ([]byte, error) {
	return h.mux.HandleRequest(req)
}

// ownerOf maps a topic onto a live hub by rendezvous hashing over the
// roster, so ownership moves minimally as the pool scales.
func (h *Hub) ownerOf(topic string) (core.MemberInfo, error) {
	roster := h.ctx.Roster()
	if len(roster) == 0 {
		return core.MemberInfo{}, errors.New("hedwig: empty roster")
	}
	best := roster[0]
	var bestScore uint64
	for _, m := range roster {
		if m.Draining {
			continue
		}
		hh := fnv.New64a()
		_, _ = hh.Write([]byte(topic))
		_, _ = hh.Write([]byte(strconv.FormatInt(m.UID, 10)))
		if score := hh.Sum64(); score >= bestScore {
			bestScore = score
			best = m
		}
	}
	return best, nil
}

func (h *Hub) owner(a TopicArgs) (OwnerReply, error) {
	m, err := h.ownerOf(a.Topic)
	if err != nil {
		return OwnerReply{}, err
	}
	return OwnerReply{OwnerUID: m.UID, OwnerAddr: m.Addr}, nil
}

// publish appends the message to the topic log in the shared store. The
// sequence number comes from an atomic per-topic counter, so publishes
// through any hub (owner or forwarder) are totally ordered per topic.
func (h *Hub) publish(a PublishArgs) (PublishReply, error) {
	if a.Topic == "" {
		return PublishReply{}, errors.New("hedwig: empty topic")
	}
	owner, err := h.ownerOf(a.Topic)
	if err != nil {
		return PublishReply{}, err
	}
	seq, err := h.ctx.State.AddInt("topic/"+a.Topic+"/seq", 1)
	if err != nil {
		return PublishReply{}, err
	}
	key := msgKey(a.Topic, seq)
	if err := h.ctx.State.PutBytes(key, a.Body); err != nil {
		return PublishReply{}, err
	}
	if _, err := h.ctx.State.AddInt("published", 1); err != nil {
		return PublishReply{}, err
	}
	// Retention: drop messages older than the window.
	if seq > h.cfg.RetainLimit {
		_ = h.ctx.State.Delete(msgKey(a.Topic, seq-h.cfg.RetainLimit))
	}
	if err := h.registerTopic(a.Topic); err != nil {
		return PublishReply{}, err
	}
	return PublishReply{Seq: seq, OwnerUID: owner.UID}, nil
}

// registerTopic records the topic in the region's topic set (idempotent).
func (h *Hub) registerTopic(topic string) error {
	key := "topics/" + topic
	known, err := h.ctx.State.GetInt(key)
	if err != nil {
		return err
	}
	if known == 0 {
		return h.ctx.State.PutInt(key, 1)
	}
	return nil
}

func (h *Hub) subscribe(a SubArgs) (SubReply, error) {
	if a.Topic == "" || a.Subscriber == "" {
		return SubReply{}, errors.New("hedwig: empty topic or subscriber")
	}
	// A new subscriber starts at the current head: it receives messages
	// published after its subscription (Hedwig semantics).
	head, err := h.ctx.State.GetInt("topic/" + a.Topic + "/seq")
	if err != nil {
		return SubReply{}, err
	}
	if err := h.ctx.State.PutInt(cursorKey(a.Topic, a.Subscriber), head); err != nil {
		return SubReply{}, err
	}
	if err := h.registerTopic(a.Topic); err != nil {
		return SubReply{}, err
	}
	if err := h.addSubscriber(a.Topic, a.Subscriber); err != nil {
		return SubReply{}, err
	}
	return SubReply{OK: true}, nil
}

func (h *Hub) unsubscribe(a SubArgs) (SubReply, error) {
	if err := h.ctx.State.Delete(cursorKey(a.Topic, a.Subscriber)); err != nil {
		return SubReply{}, err
	}
	err := h.ctx.State.Synchronized(func() error {
		subs, err := h.ctx.State.GetString("subs/" + a.Topic)
		if err != nil {
			return err
		}
		var keep []string
		for _, s := range strings.Split(subs, ",") {
			if s != "" && s != a.Subscriber {
				keep = append(keep, s)
			}
		}
		return h.ctx.State.PutString("subs/"+a.Topic, strings.Join(keep, ","))
	})
	if err != nil {
		return SubReply{}, err
	}
	return SubReply{OK: true}, nil
}

func (h *Hub) addSubscriber(topic, sub string) error {
	return h.ctx.State.Synchronized(func() error {
		subs, err := h.ctx.State.GetString("subs/" + topic)
		if err != nil {
			return err
		}
		for _, s := range strings.Split(subs, ",") {
			if s == sub {
				return nil
			}
		}
		if subs == "" {
			return h.ctx.State.PutString("subs/"+topic, sub)
		}
		return h.ctx.State.PutString("subs/"+topic, subs+","+sub)
	})
}

// consume claims up to Max undelivered messages for the subscriber. The
// cursor advance is serialized per (topic, subscriber) with a lock, so a
// message is delivered at most once even under concurrent consumes through
// different hubs. Consume stops at a message that is sequenced but not yet
// stored rather than skip past it (see pendingGrace), so publishes racing
// a consume are delivered by a later one.
func (h *Hub) consume(a ConsumeArgs) (ConsumeReply, error) {
	if a.Max <= 0 {
		a.Max = 16
	}
	var out []Message
	lock := "consume/" + a.Topic + "/" + a.Subscriber
	err := h.ctx.State.SynchronizedNamed(lock, func() error {
		cursor, err := h.ctx.State.GetInt(cursorKey(a.Topic, a.Subscriber))
		if err != nil {
			return err
		}
		head, err := h.ctx.State.GetInt("topic/" + a.Topic + "/seq")
		if err != nil {
			return err
		}
		for seq := cursor + 1; seq <= head && len(out) < a.Max; seq++ {
			key := msgKey(a.Topic, seq)
			body, err := h.ctx.State.GetBytes(key)
			if err != nil {
				return err
			}
			if body == nil {
				if seq > head-h.cfg.RetainLimit && h.stillPending(key) {
					break // publish in flight: deliver it, and what follows, next time
				}
				continue // fell out of the retention window, or its publish failed: skipped
			}
			h.clearGap(key)
			out = append(out, Message{Topic: a.Topic, Seq: seq, Body: body})
			cursor = seq
		}
		if len(out) > 0 {
			if _, err := h.ctx.State.AddInt("delivered", int64(len(out))); err != nil {
				return err
			}
		}
		return h.ctx.State.PutInt(cursorKey(a.Topic, a.Subscriber), cursor)
	})
	if err != nil {
		return ConsumeReply{}, err
	}
	return ConsumeReply{Messages: out}, nil
}

// stillPending reports whether consume should keep waiting on the missing
// message at key: true until pendingGrace has passed since this hub first
// found it missing.
func (h *Hub) stillPending(key string) bool {
	now := h.ctx.Clock.Now()
	h.gapMu.Lock()
	defer h.gapMu.Unlock()
	first, ok := h.gaps[key]
	if !ok {
		h.gaps[key] = now
		return true
	}
	if now.Sub(first) < pendingGrace {
		return true
	}
	delete(h.gaps, key)
	return false
}

// clearGap forgets a pending message once its body has been found.
func (h *Hub) clearGap(key string) {
	h.gapMu.Lock()
	delete(h.gaps, key)
	h.gapMu.Unlock()
}

// backlog sums undelivered messages over all topics and subscribers.
func (h *Hub) backlog(core.Empty) (BacklogReply, error) {
	topics, err := h.topicList()
	if err != nil {
		return BacklogReply{}, err
	}
	var undelivered int64
	for _, topic := range topics {
		head, err := h.ctx.State.GetInt("topic/" + topic + "/seq")
		if err != nil {
			return BacklogReply{}, err
		}
		subs, err := h.ctx.State.GetString("subs/" + topic)
		if err != nil {
			return BacklogReply{}, err
		}
		for _, sub := range strings.Split(subs, ",") {
			if sub == "" {
				continue
			}
			cursor, err := h.ctx.State.GetInt(cursorKey(topic, sub))
			if err != nil {
				return BacklogReply{}, err
			}
			if head > cursor {
				undelivered += head - cursor
			}
		}
	}
	return BacklogReply{Undelivered: undelivered, Topics: len(topics)}, nil
}

func (h *Hub) topicList() ([]string, error) {
	fields, err := h.ctx.State.Fields()
	if err != nil {
		return nil, err
	}
	var topics []string
	for _, f := range fields {
		if strings.HasPrefix(f, "topics/") {
			topics = append(topics, f[len("topics/"):])
		}
	}
	return topics, nil
}

// PublishAsync pipelines a publish through the stub: many publishes can be
// in flight while the publisher keeps producing. The future resolves to the
// receipt.
func PublishAsync(s *core.Stub, a PublishArgs) *core.Future[PublishReply] {
	return core.GoCall[PublishArgs, PublishReply](s, MethodPublish, a)
}

// PublishOneWay fires a publish without waiting for — or the hub ever
// sending — the receipt: the at-most-once delivery contract Hedwig already
// gives subscribers extends to the publish path, so a high-rate publisher
// pays one frame and zero round trips per message. Sequencing and retention
// still happen hub-side exactly as for Publish.
func PublishOneWay(s *core.Stub, a PublishArgs) error {
	return core.OneWayCall[PublishArgs](s, MethodPublish, a)
}

// ChangePoolSize implements core.PoolSizer with Hedwig-specific signals:
// undelivered backlog per hub and publish rate.
func (h *Hub) ChangePoolSize() int {
	stats := h.ctx.MethodCallStats()
	pub := stats[MethodPublish]
	bl, err := h.backlog(core.Empty{})
	if err != nil {
		return 0
	}
	size := h.ctx.PoolSize()
	if size == 0 {
		size = 1
	}
	perHub := bl.Undelivered / int64(size)
	switch {
	case perHub > 2*h.cfg.BacklogHighPerHub:
		return 2
	case perHub > h.cfg.BacklogHighPerHub:
		return 1
	case pub.RatePerSec < h.cfg.IdleRate && perHub == 0:
		return -1
	default:
		return 0
	}
}

func msgKey(topic string, seq int64) string {
	return "msg/" + topic + "/" + strconv.FormatInt(seq, 10)
}

func cursorKey(topic, sub string) string {
	return "cursor/" + topic + "/" + sub
}
