package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventFrameRoundTrip(t *testing.T) {
	cases := []struct {
		seq, kind uint64
		topic     string
		payload   []byte
	}{
		{0, 0, "", nil},
		{7, 1, "user/42", []byte("v9")},
		{1 << 50, 1 << 40, strings.Repeat("k", maxEventTopic), bytes.Repeat([]byte{0xAB}, 3000)},
	}
	for _, tc := range cases {
		raw := frameBytes(t, func(w *connWriter) error {
			return w.writeEvent(tc.seq, tc.kind, tc.topic, tc.payload)
		})
		kind, meta, payload := reparse(t, raw)
		if kind != frameEvent {
			t.Fatalf("event frame came back as kind %d", kind)
		}
		var ev Event
		if err := parseEvent(meta, payload, &ev); err != nil {
			t.Fatalf("parseEvent: %v", err)
		}
		if ev.Seq != tc.seq || ev.Kind != tc.kind || ev.Topic != tc.topic || !bytes.Equal(ev.Payload, tc.payload) {
			t.Fatalf("round trip drifted: %+v != %+v", ev, tc)
		}
	}
}

// TestParseEventAllocsNothing pins the client's event parse at zero
// allocations: the topic views the metadata slab instead of being copied,
// and Session-style handlers copy only what they keep.
func TestParseEventAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	raw := frameBytes(t, func(w *connWriter) error {
		return w.writeEvent(7, 1, "C$some-field", nil)
	})
	_, meta, payload := reparse(t, raw)
	var ev Event
	n := testing.AllocsPerRun(1000, func() {
		if err := parseEvent(meta, payload, &ev); err != nil {
			t.Fatalf("parseEvent: %v", err)
		}
	})
	if n != 0 {
		t.Errorf("parseEvent = %v allocs, want 0", n)
	}
	if ev.Topic != "C$some-field" || ev.Seq != 7 || ev.Kind != 1 {
		t.Errorf("parsed %+v", ev)
	}
}

func TestEventWriterRefusesOversize(t *testing.T) {
	var buf bytes.Buffer
	w := newConnWriter(&buf)
	if err := w.writeEvent(1, 1, strings.Repeat("t", maxEventTopic+1), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize topic: got %v, want ErrFrameTooLarge", err)
	}
	if err := w.writeEvent(1, 1, "k", make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize payload: got %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frames wrote %d bytes", buf.Len())
	}
	// The writer stays usable after a refusal.
	if err := w.writeEvent(2, 1, "k", []byte("ok")); err != nil {
		t.Fatalf("writeEvent after refusal: %v", err)
	}
}

// TestEventPushDelivery drives the full path: a handler captures the
// connection's Pusher on one request and pushes events that the client's
// OnEvent callback observes, in write order, while ordinary calls keep
// flowing on the same connection.
func TestEventPushDelivery(t *testing.T) {
	var (
		mu     sync.Mutex
		pusher *Pusher
	)
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		switch req.Method {
		case "Subscribe":
			mu.Lock()
			pusher = req.Pusher()
			mu.Unlock()
			return nil, nil
		case "Echo":
			return req.Payload, nil
		}
		return nil, errors.New("unknown method")
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	got := make(chan Event, 16)
	c, err := DialOpts(srv.Addr(), DialOptions{
		Timeout: time.Second,
		OnEvent: func(ev Event) {
			// Topic and Payload are only valid during the callback: copy
			// them out.
			ev.Topic = strings.Clone(ev.Topic)
			ev.Payload = append([]byte(nil), ev.Payload...)
			got <- ev
		},
	})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	defer c.Close()

	if _, err := c.Call("svc", "Subscribe", nil, time.Second); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	mu.Lock()
	p := pusher
	mu.Unlock()
	if p == nil {
		t.Fatal("handler saw no Pusher")
	}
	if p.Closed() {
		t.Fatal("live connection reports Closed")
	}
	for i := uint64(1); i <= 3; i++ {
		if err := p.Send(2, i, "key/a", []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Calls interleave with events on the same connection.
	if _, err := c.Call("svc", "Echo", []byte("x"), time.Second); err != nil {
		t.Fatalf("Echo alongside events: %v", err)
	}
	for i := uint64(1); i <= 3; i++ {
		select {
		case ev := <-got:
			if ev.Seq != i || ev.Kind != 2 || ev.Topic != "key/a" || !bytes.Equal(ev.Payload, []byte{byte(i)}) {
				t.Fatalf("event %d drifted: %+v", i, ev)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("event %d never delivered", i)
		}
	}

	// Once the connection is gone, the retained handle fails every Send
	// with ErrClosed rather than touching a dead writer.
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for !p.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("Pusher never observed the closed connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Send(2, 9, "key/a", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close: got %v, want ErrClosed", err)
	}
}

// TestEventWithoutHandlerDropped asserts a client with no OnEvent handler
// drops pushed events and keeps the connection fully usable.
func TestEventWithoutHandlerDropped(t *testing.T) {
	var (
		mu     sync.Mutex
		pusher *Pusher
	)
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		mu.Lock()
		pusher = req.Pusher()
		mu.Unlock()
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c := dial(t, srv.Addr())
	if _, err := c.Call("svc", "Echo", []byte("a"), time.Second); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mu.Lock()
	p := pusher
	mu.Unlock()
	if err := p.Send(1, 1, "orphan", []byte("dropped")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// A round-trip serializes behind the event on the read loop, proving
	// the orphan was processed (and dropped) before a handler exists.
	if _, err := c.Call("svc", "Echo", nil, time.Second); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out, err := c.Call("svc", "Echo", []byte("b"), time.Second); err != nil || !bytes.Equal(out, []byte("b")) {
		t.Fatalf("connection unusable after dropped event: %v %q", err, out)
	}
	// A client of the same server dialed with a handler receives the same
	// push on its own connection.
	got := make(chan Event, 1)
	c2, err := DialOpts(srv.Addr(), DialOptions{OnEvent: func(ev Event) {
		got <- Event{Seq: ev.Seq, Kind: ev.Kind, Topic: strings.Clone(ev.Topic)}
	}})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Call("svc", "Echo", nil, time.Second); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mu.Lock()
	p = pusher
	mu.Unlock()
	if err := p.Send(3, 2, "live", nil); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case ev := <-got:
		if ev.Seq != 2 || ev.Kind != 3 || ev.Topic != "live" {
			t.Fatalf("handler got %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never ran")
	}
}

// TestMalformedEventKillsClientConn asserts that a hostile event frame —
// well-formed header, garbage metadata — is a protocol violation: the
// client fails its in-flight calls rather than mis-delivering.
func TestMalformedEventKillsClientConn(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var preamble [5]byte
		if _, err := conn.Read(preamble[:]); err != nil {
			return
		}
		// Metadata declares a topic length running past the section.
		meta := binary.AppendUvarint(nil, 1) // seq
		meta = binary.AppendUvarint(meta, 1) // kind
		meta = binary.AppendUvarint(meta, 200)
		frame := make([]byte, 4)
		binary.BigEndian.PutUint32(frame, uint32(frameHeaderSize+len(meta)))
		frame = append(frame, byte(frameEvent), 0, 0, 0, 0)
		frame = append(frame, meta...)
		conn.Write(frame)
	}()
	c, err := DialOpts(lis.Addr().String(), DialOptions{
		Timeout: time.Second,
		OnEvent: func(ev Event) { t.Errorf("malformed event delivered: %+v", ev) },
	})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	defer c.Close()
	if _, err := c.Call("svc", "Echo", nil, 2*time.Second); err == nil {
		t.Fatal("call on poisoned connection succeeded")
	}
}

func FuzzEventFrame(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(binary.AppendUvarint(nil, 1<<40), []byte{}) // seq only, then truncation
	hostile := binary.AppendUvarint(nil, 1)
	hostile = binary.AppendUvarint(hostile, 2)
	hostile = binary.AppendUvarint(hostile, 1<<30) // topic length bomb
	f.Add(hostile, []byte{})
	long := binary.AppendUvarint(nil, 1)
	long = binary.AppendUvarint(long, 2)
	long = binary.AppendUvarint(long, maxEventTopic+1)
	long = append(long, bytes.Repeat([]byte{'t'}, maxEventTopic+1)...)
	f.Add(long, []byte{}) // over-limit topic actually present
	var t testing.T
	good := frameBytes(&t, func(w *connWriter) error {
		return w.writeEvent(9, 2, "key/hot", []byte("payload"))
	})
	f.Add(good[9:len(good)-7], good[len(good)-7:]) // split sections of a production frame

	f.Fuzz(func(t *testing.T, meta, payload []byte) {
		var ev Event
		if err := parseEvent(meta, payload, &ev); err != nil {
			return
		}
		if len(ev.Topic) > maxEventTopic {
			t.Fatalf("accepted topic of %d bytes", len(ev.Topic))
		}
		if frameHeaderSize+eventMetaSize(ev.Seq, ev.Kind, ev.Topic)+len(ev.Payload) > MaxFrame {
			return // the writer refuses oversize frames by design
		}
		// Round-trip stability: what the parser accepted re-encodes to a
		// frame it parses back field-identically.
		out := frameBytes(t, func(w *connWriter) error {
			return w.writeEvent(ev.Seq, ev.Kind, ev.Topic, ev.Payload)
		})
		kind, meta2, payload2 := reparse(t, out)
		if kind != frameEvent {
			t.Fatalf("re-encoded event came back as kind %d", kind)
		}
		var again Event
		if err := parseEvent(meta2, payload2, &again); err != nil {
			t.Fatalf("re-encoded event rejected: %v", err)
		}
		if again.Seq != ev.Seq || again.Kind != ev.Kind || again.Topic != ev.Topic || !bytes.Equal(again.Payload, ev.Payload) {
			t.Fatalf("round trip drifted: %+v != %+v", again, ev)
		}
	})
}
