package hedwig_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/apps/hedwig"
	"elasticrmi/internal/core"
	"elasticrmi/internal/ermitest"
)

func startRegion(t *testing.T, minPool, maxPool int) (*core.Pool, *core.Stub) {
	t.Helper()
	env := ermitest.New(t, 10)
	pool := env.StartPool(t, core.Config{
		Name: "hedwig", MinPoolSize: minPool, MaxPoolSize: maxPool,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, hedwig.New(hedwig.Config{}))
	stub := env.Stub(t, "hedwig")
	return pool, stub
}

func publish(t *testing.T, stub *core.Stub, topic, body string) hedwig.PublishReply {
	t.Helper()
	rep, err := core.Call[hedwig.PublishArgs, hedwig.PublishReply](stub, hedwig.MethodPublish,
		hedwig.PublishArgs{Topic: topic, Body: []byte(body)})
	if err != nil {
		t.Fatalf("Publish(%s): %v", topic, err)
	}
	return rep
}

func subscribe(t *testing.T, stub *core.Stub, topic, sub string) {
	t.Helper()
	ok, err := core.Call[hedwig.SubArgs, hedwig.SubReply](stub, hedwig.MethodSubscribe,
		hedwig.SubArgs{Topic: topic, Subscriber: sub})
	if err != nil || !ok.OK {
		t.Fatalf("Subscribe(%s,%s): ok=%v err=%v", topic, sub, ok.OK, err)
	}
}

func consume(t *testing.T, stub *core.Stub, topic, sub string, max int) []hedwig.Message {
	t.Helper()
	rep, err := core.Call[hedwig.ConsumeArgs, hedwig.ConsumeReply](stub, hedwig.MethodConsume,
		hedwig.ConsumeArgs{Topic: topic, Subscriber: sub, Max: max})
	if err != nil {
		t.Fatalf("Consume(%s,%s): %v", topic, sub, err)
	}
	return rep.Messages
}

func TestPublishSubscribeDeliver(t *testing.T) {
	_, stub := startRegion(t, 2, 4)
	subscribe(t, stub, "news", "alice")
	for i := 0; i < 5; i++ {
		publish(t, stub, "news", fmt.Sprintf("m%d", i))
	}
	msgs := consume(t, stub, "news", "alice", 10)
	if len(msgs) != 5 {
		t.Fatalf("consumed %d messages, want 5", len(msgs))
	}
	for i, m := range msgs {
		if string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Errorf("message %d body = %q, want m%d", i, m.Body, i)
		}
		if m.Seq != int64(i+1) {
			t.Errorf("message %d seq = %d, want %d (per-topic total order)", i, m.Seq, i+1)
		}
	}
}

func TestAtMostOnceDelivery(t *testing.T) {
	_, stub := startRegion(t, 3, 3)
	subscribe(t, stub, "t", "bob")
	const n = 30
	for i := 0; i < n; i++ {
		publish(t, stub, "t", fmt.Sprintf("m%d", i))
	}
	// Concurrent consumers for the same subscription, through different
	// hubs (the stub round-robins): each message must be claimed at most
	// once in total.
	var mu sync.Mutex
	seen := make(map[int64]int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msgs := consume(t, stub, "t", "bob", 5)
				if len(msgs) == 0 {
					return
				}
				mu.Lock()
				for _, m := range msgs {
					seen[m.Seq]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
	for seq, count := range seen {
		if count > 1 {
			t.Fatalf("message %d delivered %d times (at-most-once violated)", seq, count)
		}
	}
}

func TestSubscriberStartsAtSubscriptionPoint(t *testing.T) {
	_, stub := startRegion(t, 2, 4)
	publish(t, stub, "x", "before-1")
	publish(t, stub, "x", "before-2")
	subscribe(t, stub, "x", "carol")
	publish(t, stub, "x", "after-1")
	msgs := consume(t, stub, "x", "carol", 10)
	if len(msgs) != 1 || string(msgs[0].Body) != "after-1" {
		t.Fatalf("carol got %v, want only after-1", msgs)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	_, stub := startRegion(t, 2, 4)
	subscribe(t, stub, "y", "dan")
	publish(t, stub, "y", "m1")
	if got := consume(t, stub, "y", "dan", 10); len(got) != 1 {
		t.Fatalf("got %d messages, want 1", len(got))
	}
	ok, err := core.Call[hedwig.SubArgs, hedwig.SubReply](stub, hedwig.MethodUnsubscribe,
		hedwig.SubArgs{Topic: "y", Subscriber: "dan"})
	if err != nil || !ok.OK {
		t.Fatalf("Unsubscribe: ok=%v err=%v", ok.OK, err)
	}
	publish(t, stub, "y", "m2")
	bl, err := core.Call[core.Empty, hedwig.BacklogReply](stub, hedwig.MethodBacklog, core.Empty{})
	if err != nil {
		t.Fatalf("Backlog: %v", err)
	}
	if bl.Undelivered != 0 {
		t.Fatalf("backlog = %d after unsubscribe, want 0", bl.Undelivered)
	}
}

func TestTopicOwnershipStableAcrossHubs(t *testing.T) {
	_, stub := startRegion(t, 3, 3)
	// Ask for the owner several times through different hubs; the answer
	// must be consistent because ownership is a pure function of the
	// roster.
	var owner int64
	for i := 0; i < 6; i++ {
		rep, err := core.Call[hedwig.TopicArgs, hedwig.OwnerReply](stub, hedwig.MethodOwner,
			hedwig.TopicArgs{Topic: "stable-topic"})
		if err != nil {
			t.Fatalf("Owner: %v", err)
		}
		if i == 0 {
			owner = rep.OwnerUID
		} else if rep.OwnerUID != owner {
			t.Fatalf("owner changed between hubs: %d vs %d", rep.OwnerUID, owner)
		}
	}
}

func TestBacklogTracksUndelivered(t *testing.T) {
	_, stub := startRegion(t, 2, 4)
	subscribe(t, stub, "b", "eve")
	subscribe(t, stub, "b", "frank")
	for i := 0; i < 4; i++ {
		publish(t, stub, "b", "m")
	}
	bl, err := core.Call[core.Empty, hedwig.BacklogReply](stub, hedwig.MethodBacklog, core.Empty{})
	if err != nil {
		t.Fatalf("Backlog: %v", err)
	}
	if bl.Undelivered != 8 { // 4 messages x 2 subscribers
		t.Fatalf("backlog = %d, want 8", bl.Undelivered)
	}
	consume(t, stub, "b", "eve", 10)
	bl, err = core.Call[core.Empty, hedwig.BacklogReply](stub, hedwig.MethodBacklog, core.Empty{})
	if err != nil {
		t.Fatalf("Backlog: %v", err)
	}
	if bl.Undelivered != 4 {
		t.Fatalf("backlog after eve consumed = %d, want 4", bl.Undelivered)
	}
}

func TestRetentionWindowDropsOldMessages(t *testing.T) {
	env := ermitest.New(t, 10)
	env.StartPool(t, core.Config{
		Name: "hedwig", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, hedwig.New(hedwig.Config{RetainLimit: 5}))
	stub := env.Stub(t, "hedwig")

	subscribe(t, stub, "r", "slowpoke")
	for i := 0; i < 12; i++ {
		publish(t, stub, "r", fmt.Sprintf("m%d", i))
	}
	// Only the last 5 messages (seq 8..12) are retained; the slow consumer
	// skips the evicted window instead of seeing stale redelivery.
	var got []hedwig.Message
	for {
		msgs := consume(t, stub, "r", "slowpoke", 4)
		if len(msgs) == 0 {
			break
		}
		got = append(got, msgs...)
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d retained messages, want 5", len(got))
	}
	if got[0].Seq != 8 || got[len(got)-1].Seq != 12 {
		t.Fatalf("retained window = [%d..%d], want [8..12]", got[0].Seq, got[len(got)-1].Seq)
	}
}

// TestConsumeWaitsForInFlightPublish: a message that has its sequence
// number but not yet its stored body is a publish still in flight, so
// consume stops in front of it instead of skipping it for good; only a gap
// that outlasts the hub's grace period (a publish that failed between the
// two steps) is skipped. The test plays the in-flight publish by hand
// against the shared store, using the hub's "topic/<t>/seq" counter and
// "msg/<t>/<seq>" body keys.
func TestConsumeWaitsForInFlightPublish(t *testing.T) {
	env := ermitest.New(t, 10)
	env.StartPool(t, core.Config{
		Name: "hedwig", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, hedwig.New(hedwig.Config{}))
	stub := env.Stub(t, "hedwig")
	state := core.NewState("hedwig", "test", env.Store, nil)
	seqs := func(msgs []hedwig.Message) []int64 {
		out := make([]int64, len(msgs))
		for i, m := range msgs {
			out[i] = m.Seq
		}
		return out
	}

	subscribe(t, stub, "news", "alice")
	publish(t, stub, "news", "m1")
	if _, err := state.AddInt("topic/news/seq", 1); err != nil { // seq 2: sequenced, not stored
		t.Fatalf("AddInt: %v", err)
	}
	publish(t, stub, "news", "m3")
	if got := seqs(consume(t, stub, "news", "alice", 10)); fmt.Sprint(got) != "[1]" {
		t.Fatalf("consume with seq 2 in flight = %v, want [1]", got)
	}
	if err := state.PutBytes("msg/news/2", []byte("m2")); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	if got := seqs(consume(t, stub, "news", "alice", 10)); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("consume after seq 2 landed = %v, want [2 3]", got)
	}

	// Seq 4 never gets its body: consume holds back seq 5 until the gap
	// outlasts the grace period, then skips seq 4.
	if _, err := state.AddInt("topic/news/seq", 1); err != nil {
		t.Fatalf("AddInt: %v", err)
	}
	publish(t, stub, "news", "m5")
	var got []int64
	ermitest.WaitUntil(t, "consume skips the failed publish", 10*time.Second, func() bool {
		got = append(got, seqs(consume(t, stub, "news", "alice", 10))...)
		return len(got) > 0
	})
	if fmt.Sprint(got) != "[5]" {
		t.Fatalf("consume past a failed publish = %v, want [5]", got)
	}
}

func TestDeliveryAcrossScaleUp(t *testing.T) {
	pool, stub := startRegion(t, 2, 6)
	subscribe(t, stub, "scale", "gina")
	for i := 0; i < 10; i++ {
		publish(t, stub, "scale", fmt.Sprintf("m%d", i))
	}
	if err := pool.Resize(3); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	pool.BroadcastNow()
	for i := 10; i < 20; i++ {
		publish(t, stub, "scale", fmt.Sprintf("m%d", i))
	}
	var got []hedwig.Message
	for {
		msgs := consume(t, stub, "scale", "gina", 7)
		if len(msgs) == 0 {
			break
		}
		got = append(got, msgs...)
	}
	if len(got) != 20 {
		t.Fatalf("delivered %d messages across scale-up, want 20", len(got))
	}
	for i, m := range got {
		if string(m.Body) != fmt.Sprintf("m%d", i) {
			t.Fatalf("message %d = %q out of order", i, m.Body)
		}
	}
}

// TestPublishOneWayDelivers: fire-and-forget publishes still sequence,
// retain and deliver exactly like acknowledged ones — the publisher just
// stops paying round trips.
func TestPublishOneWayDelivers(t *testing.T) {
	env := ermitest.New(t, 10)
	env.StartPool(t, core.Config{
		Name: "hedwig-oneway", MinPoolSize: 2, MaxPoolSize: 4,
		BurstInterval: time.Hour, DisableBroadcast: true,
	}, hedwig.New(hedwig.Config{}))
	stub := env.Stub(t, "hedwig-oneway")

	subscribe(t, stub, "news", "alice")
	const n = 40
	for i := 0; i < n; i++ {
		if err := hedwig.PublishOneWay(stub, hedwig.PublishArgs{
			Topic: "news", Body: []byte(fmt.Sprintf("msg-%d", i)),
		}); err != nil {
			t.Fatalf("PublishOneWay %d: %v", i, err)
		}
	}
	// One-way publishes carry no receipt; poll consumption until all have
	// been sequenced and claimed.
	var got []hedwig.Message
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < n {
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d/%d one-way publishes", len(got), n)
		}
		got = append(got, consume(t, stub, "news", "alice", n)...)
		time.Sleep(2 * time.Millisecond)
	}
	seen := make(map[int64]bool)
	for _, m := range got {
		if seen[m.Seq] {
			t.Fatalf("message seq %d delivered twice", m.Seq)
		}
		seen[m.Seq] = true
	}
	if len(seen) != n {
		t.Fatalf("distinct messages = %d, want %d", len(seen), n)
	}
}

// TestPublishAsyncPipelines: a publisher keeps a window of publishes in
// flight and every receipt carries a distinct sequence number.
func TestPublishAsyncPipelines(t *testing.T) {
	_, stub := startRegion(t, 2, 4)
	subscribe(t, stub, "ticks", "bob")
	const n = 32
	futures := make([]*core.Future[hedwig.PublishReply], n)
	for i := range futures {
		futures[i] = hedwig.PublishAsync(stub, hedwig.PublishArgs{
			Topic: "ticks", Body: []byte{byte(i)},
		})
	}
	seen := make(map[int64]bool)
	for i, f := range futures {
		rep, err := f.Get()
		if err != nil {
			t.Fatalf("PublishAsync %d: %v", i, err)
		}
		if seen[rep.Seq] {
			t.Fatalf("sequence %d assigned twice", rep.Seq)
		}
		seen[rep.Seq] = true
	}
}
