package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/route"
)

// solvePayloadLen finds the payload length that makes a request frame come
// out at exactly target bytes. The payload rides in the frame's dedicated
// payload section behind a fixed-width length field, so the relationship is
// linear.
func solvePayloadLen(t *testing.T, seq uint64, service, method string, target int) int {
	t.Helper()
	n := target - frameHeaderSize - requestMetaSize(seq, 0, 0, service, method)
	if n <= 0 {
		t.Fatalf("no payload length reaches frame size %d", target)
	}
	return n
}

// TestFrameExactlyAtMaxFrame drives the codec at its boundary: a request
// frame of exactly MaxFrame bytes round-trips; one byte more is refused by
// the writer before anything hits the wire.
func TestFrameExactlyAtMaxFrame(t *testing.T) {
	const seq = 7
	plen := solvePayloadLen(t, seq, "s", "m", MaxFrame)
	payload := make([]byte, plen)
	payload[0], payload[plen-1] = 0xA5, 0x5A

	var buf bytes.Buffer
	w := newConnWriter(&buf)
	if err := w.writeRequest(frameRequest, seq, 0, 0, "s", "m", payload); err != nil {
		t.Fatalf("writeRequest at limit: %v", err)
	}
	if got := buf.Len(); got != MaxFrame+4 {
		t.Fatalf("wire bytes = %d, want %d (frame + 4-byte length)", got, MaxFrame+4)
	}
	kind, meta, payload2, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("readFrame at limit: %v", err)
	}
	if kind != frameRequest {
		t.Fatalf("kind = %d", kind)
	}
	req, err := parseRequest(meta, payload2, nil)
	if err != nil {
		t.Fatalf("parseRequest: %v", err)
	}
	if req.Seq != seq || req.Service != "s" || req.Method != "m" || len(req.Payload) != plen {
		t.Fatalf("decoded = seq %d %s.%s %dB", req.Seq, req.Service, req.Method, len(req.Payload))
	}
	if req.Payload[0] != 0xA5 || req.Payload[plen-1] != 0x5A {
		t.Fatal("payload corrupted at frame boundary")
	}

	// One byte over: refused cleanly, nothing written.
	var buf2 bytes.Buffer
	w2 := newConnWriter(&buf2)
	err = w2.writeRequest(frameRequest, seq, 0, 0, "s", "m", make([]byte, plen+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-limit err = %v, want ErrFrameTooLarge", err)
	}
	if buf2.Len() != 0 {
		t.Fatalf("over-limit frame leaked %d bytes onto the wire", buf2.Len())
	}
}

// TestReadFrameRejectsOversizeHeader feeds a header declaring a frame just
// over MaxFrame; the reader must reject it without attempting the 64MB+
// allocation of a hostile length.
func TestReadFrameRejectsOversizeHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:])))
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("err = %v, want oversize rejection", err)
	}
	// Zero-length frames (no kind byte) are equally malformed.
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:]))); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// A payload length exceeding the declared frame size is rejected before
	// either section is read.
	hostile := []byte{0, 0, 0, 9, byte(frameRequest), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hostile))); !errors.Is(err, errMalformed) {
		t.Fatalf("hostile payload length err = %v, want errMalformed", err)
	}
}

// TestProtocolV6RejectsV5PeersAndRetiredKind: a peer opening with the
// version-5 preamble is dropped before any frame is parsed, and kind 5 —
// the event frame's old number, past the last declared kind since the
// batch frame was deleted — is malformed.
func TestProtocolV6RejectsV5PeersAndRetiredKind(t *testing.T) {
	if protoVersion != 6 || frameEvent != 4 || frameMax != frameEvent {
		t.Fatalf("protocol version %d with event kind %d and bound %d, want 6, 4, 4", protoVersion, frameEvent, frameMax)
	}
	retired := []byte{0, 0, 0, 6, 5, 0, 0, 0, 0, 0}
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(retired))); !errors.Is(err, errMalformed) {
		t.Fatalf("kind 5 err = %v, want errMalformed", err)
	}

	var handled atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		handled.Add(1)
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	v5 := []byte{'e', 'R', 'M', 'I', 5}
	var buf bytes.Buffer
	if err := newConnWriter(&buf).writeRequest(frameRequest, 1, 0, 0, "svc", "Echo", []byte("v5")); err != nil {
		t.Fatalf("writeRequest: %v", err)
	}
	if _, err := conn.Write(append(v5, buf.Bytes()...)); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("v5 peer read %d bytes, err %v; want the server to close (EOF)", n, err)
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("server ran %d requests from a v5 peer", n)
	}
	// A current client is still served.
	c := dial(t, srv.Addr())
	if out, err := c.Call("svc", "Echo", []byte("v6"), 5*time.Second); err != nil || string(out) != "v6" {
		t.Fatalf("v6 call = %q, %v", out, err)
	}
}

// TestOversizeCallFailsWithoutPoisoningConnection sends a payload too big to
// frame: the call fails with ErrFrameTooLarge and the same connection keeps
// serving subsequent calls.
func TestOversizeCallFailsWithoutPoisoningConnection(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	_, err := c.Call("svc", "Echo", make([]byte, MaxFrame+1), 5*time.Second)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize call err = %v, want ErrFrameTooLarge", err)
	}
	out, err := c.Call("svc", "Echo", []byte("still alive"), 5*time.Second)
	if err != nil || string(out) != "still alive" {
		t.Fatalf("connection unusable after oversize call: %q, %v", out, err)
	}
}

// TestOversizeResponseBecomesRemoteError: a handler producing an unframeable
// response surfaces as a RemoteError at the caller instead of killing the
// connection mid-frame.
func TestOversizeResponseBecomesRemoteError(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		return make([]byte, MaxFrame+1), nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())
	_, err = c.Call("svc", "Big", nil, 10*time.Second)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "frame") {
		t.Fatalf("err = %v, want RemoteError about frame limit", err)
	}
	if _, err := c.Call("svc", "Big", nil, 10*time.Second); err == nil {
		t.Fatal("second oversize call succeeded")
	}
}

// TestErrorAndRouteRoundTripsThroughCodec pushes RemoteError and
// route-update edge shapes through the binary response encoding: unicode
// error text, empty addresses, many members, draining flags — piggybacked
// on both success and error replies.
func TestErrorAndRouteRoundTripsThroughCodec(t *testing.T) {
	table := route.Table{Epoch: 42, Members: []route.Member{
		{Addr: "", UID: 1, Weight: 0, Load: 0, Draining: true},
		{Addr: "host-α:1", UID: 2, Weight: 100, Load: 7},
		{Addr: strings.Repeat("x", 300), UID: 3, Weight: 25, Load: 1 << 20},
	}}
	for i := 0; i < 40; i++ {
		table.Members = append(table.Members, route.Member{
			Addr: fmt.Sprintf("10.0.0.%d:90", i), UID: int64(i + 4), Weight: 100,
		})
	}
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		if req.Method == "Unicode" {
			return nil, errors.New("объект перегружен ☂ 故障")
		}
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetRouteSource(func() route.Table { return table })

	var mu sync.Mutex
	var updates []route.Table
	c, err := DialOpts(srv.Addr(), DialOptions{
		OnRouteUpdate: func(tab route.Table) {
			mu.Lock()
			updates = append(updates, tab)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	// The table must ride error replies too: a stale client whose call hit
	// an application error still converges on that reply.
	_, err = c.Call("svc", "Unicode", nil, 5*time.Second)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "объект перегружен ☂ 故障" {
		t.Fatalf("unicode remote error = %v", err)
	}
	if _, err := c.Call("svc", "Echo", []byte("p"), 5*time.Second); err != nil {
		t.Fatalf("Echo: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	// The client stamps epoch 0 on every request (no Epoch source), so both
	// replies carry the table.
	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
	for _, u := range updates {
		if u.Epoch != table.Epoch || len(u.Members) != len(table.Members) {
			t.Fatalf("update = epoch %d / %d members", u.Epoch, len(u.Members))
		}
		for i := range table.Members {
			if u.Members[i] != table.Members[i] {
				t.Fatalf("member %d = %+v, want %+v", i, u.Members[i], table.Members[i])
			}
		}
	}
}

// TestParseResponseRejectsHostileRouteCount feeds a response body whose
// declared route-member count vastly exceeds the actual entries; the parser
// must reject it without allocating storage proportional to the claim.
func TestParseResponseRejectsHostileRouteCount(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 9)          // seq
	body = binary.AppendUvarint(body, 0)          // status OK
	body = binary.AppendUvarint(body, 0)          // no error string
	body = binary.AppendUvarint(body, 3)          // route epoch
	body = binary.AppendUvarint(body, 67_000_000) // hostile member count...
	body = append(body, make([]byte, 64)...)      // ...backed by 64 bytes
	var res callResult
	if _, err := parseResponse(body, nil, &res); !errors.Is(err, errMalformed) {
		t.Fatalf("err = %v, want errMalformed", err)
	}
	if res.route != nil && len(res.route.Members) > 64 {
		t.Fatalf("parser materialized %d route members from a hostile count", len(res.route.Members))
	}
}

// TestConcurrentCloseDuringInFlightCalls closes the client while calls are
// mid-flight from many goroutines: every call must return (result or error,
// never hang), later calls must fail ErrClosed, and the race detector must
// stay quiet.
func TestConcurrentCloseDuringInFlightCalls(t *testing.T) {
	srv := startEcho(t)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const callers = 16
	var wg sync.WaitGroup
	var started atomic.Int32 // callers that completed at least one call
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				method := "Echo"
				if j%10 == 0 {
					method = "Slow"
				}
				if _, err := c.Call("svc", method, []byte{byte(j)}, 2*time.Second); err != nil {
					return // connection torn down underneath us — expected
				}
				if j == 0 {
					started.Add(1)
				}
			}
		}()
	}
	// Close only after every caller has a first call behind it (so calls are
	// genuinely mid-flight), instead of hoping a fixed sleep lines up with
	// scheduler timing on a loaded CI machine.
	for deadline := time.Now().Add(10 * time.Second); started.Load() < callers; {
		if time.Now().After(deadline) {
			t.Fatal("callers never got a first call through")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("calls hung after concurrent Close")
	}
	if _, err := c.Call("svc", "Echo", nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
}

// TestTimeoutRaceKeepsPooledCallsClean is the regression test for the
// timeout/response race under pooled call objects: timeouts that lose the
// race to the read loop must drain the in-flight result before the call
// object is reused, or a later call on the connection would receive a stale
// response. The echoed marker makes any cross-delivery visible.
func TestTimeoutRaceKeepsPooledCallsClean(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		// Delay controlled by the first payload byte so the response lands
		// right around the client's deadline, maximizing race coverage.
		if len(req.Payload) > 0 {
			time.Sleep(time.Duration(req.Payload[0]) * 100 * time.Microsecond)
		}
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())

	const callers = 8
	var wg sync.WaitGroup
	var mismatches sync.Map
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				delay := byte(i % 12) // 0..1.1ms server delay
				marker := []byte{delay, byte(g), byte(i), byte(i >> 8)}
				timeout := time.Duration(1+i%2) * 600 * time.Microsecond
				out, err := c.Call("svc", "Echo", marker, timeout)
				if err != nil {
					if !errors.Is(err, ErrTimeout) {
						mismatches.Store(fmt.Sprintf("g%d i%d", g, i), err)
						return
					}
					continue
				}
				if !bytes.Equal(out, marker) {
					mismatches.Store(fmt.Sprintf("g%d i%d", g, i),
						fmt.Errorf("stale response: sent %v got %v", marker, out))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mismatches.Range(func(k, v interface{}) bool {
		t.Errorf("%s: %v", k, v)
		return true
	})
	// The connection must still be fully coherent after the storm.
	for i := 0; i < 100; i++ {
		marker := []byte{0, 0xEE, byte(i)}
		out, err := c.Call("svc", "Echo", marker, 5*time.Second)
		if err != nil {
			t.Fatalf("post-storm call %d: %v", i, err)
		}
		if !bytes.Equal(out, marker) {
			t.Fatalf("post-storm call %d: stale response %v", i, out)
		}
	}
}

// TestResultChannelReuseUnderTimeouts: each call's one-slot result channel
// and its pending call (with the budget timer) are pooled and reused, so a
// call whose timer races its reply must complete exactly once — whichever
// of the two takes the pending entry decides, and the other delivers
// nothing. Four callers share one connection with handler delays that put
// the replies around the call timeout, so many calls time out while their
// replies land; a channel pooled with a late result in it would hand that
// stale reply to its next call, or wedge the read loop on the full slot.
// The handler spins for its delay: a time.Sleep under a millisecond can
// wake a millisecond late, which would time nearly every delayed call out
// and leave the reply-at-the-deadline race unexercised.
func TestResultChannelReuseUnderTimeouts(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		for end := time.Now().Add(time.Duration(req.Payload[0]) * 25 * time.Microsecond); time.Now().Before(end); {
			runtime.Gosched()
		}
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())

	const callers, per = 4, 800
	const timeout = 500 * time.Microsecond
	errs := make(chan error, callers)
	var timeouts atomic.Int64
	for g := 0; g < callers; g++ {
		go func(g int) {
			for i := 0; i < per; i++ {
				delay := byte(i % 20) // 0..475µs: with the round trip, around the timeout
				marker := []byte{delay, byte(g), byte(i), byte(i >> 8)}
				out, err := c.Call("svc", "Echo", marker, timeout)
				if errors.Is(err, ErrTimeout) {
					timeouts.Add(1)
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(out, marker) {
					errs <- fmt.Errorf("caller %d call %d: sent %v, got %v", g, i, marker, out)
					return
				}
				ReleasePayload(out)
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < callers; g++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d callers hung", callers-g, callers)
		}
	}
	t.Logf("%d of %d calls timed out, %d succeeded", timeouts.Load(), callers*per, callers*per-timeouts.Load())
	if timeouts.Load() == 0 {
		t.Fatal("no call timed out: the reuse path went unexercised")
	}
	if out, err := c.Call("svc", "Echo", []byte{0, 0xEE}, 5*time.Second); err != nil || !bytes.Equal(out, []byte{0, 0xEE}) {
		t.Fatalf("connection incoherent after the storm: %v, %v", out, err)
	}
}

// TestStartDeliversNoOutcomeDuringWrite: a call's outcome reaches its
// Completer only once Start's write of the request has returned, whoever
// decides it meanwhile. The caller owns the payload again the moment it
// has an outcome — a stub releases it to the arena, and a retry hands it
// to another write — so an outcome delivered while the first write still
// waits for the connection writer would let that write send another
// call's bytes under this call's sequence number. The connection writer's
// lock is held to block the write while the budget timer fires, or while
// the connection fails.
func TestStartDeliversNoOutcomeDuringWrite(t *testing.T) {
	srv := startEcho(t)
	for _, tc := range []struct {
		name    string
		budget  time.Duration
		decide  func(c *Client)
		wantErr error
	}{
		{"budget timer", 200 * time.Microsecond, func(*Client) {}, ErrTimeout},
		{"connection lost", 0, func(c *Client) { c.failAll(errors.New("injected")) }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dial(t, srv.Addr())
			done := make(waiter, 1)
			c.w.mu.Lock()
			started := make(chan struct{})
			go func() {
				c.Start("svc", "Echo", []byte("payload"), tc.budget, done)
				close(started)
			}()
			pending := func() int {
				c.mu.Lock()
				defer c.mu.Unlock()
				return len(c.pending)
			}
			// Poll with sleeps: a goroutine that only yields can keep its
			// processor from running the budget timer. The sequence number
			// shows the call registered even once the timer has taken it.
			for c.seq.Load() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			tc.decide(c)
			for pending() != 0 { // taken by the timer or by failAll
				time.Sleep(50 * time.Microsecond)
			}
			select {
			case res := <-done:
				c.w.mu.Unlock()
				t.Fatalf("outcome %v delivered while the write was blocked", res.err)
			case <-time.After(20 * time.Millisecond):
			}
			c.w.mu.Unlock()
			select {
			case res := <-done:
				if !errors.Is(res.err, tc.wantErr) {
					t.Fatalf("outcome after the write = %q, %v; want %v", res.payload, res.err, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no outcome after the write returned")
			}
			<-started
		})
	}
}

// TestConnCacheSingleflight: concurrent Gets for one address share a dial,
// and a dial to an unreachable peer doesn't block Gets for other peers.
func TestConnCacheSingleflight(t *testing.T) {
	srv := startEcho(t)
	cc := NewConnCache(DialOptions{Timeout: 2 * time.Second})
	t.Cleanup(func() { cc.Close() })

	const n = 16
	clients := make([]*Client, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cc.Get(srv.Addr())
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			clients[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if clients[i] != clients[0] {
			t.Fatal("concurrent Gets produced distinct clients (dial not shared)")
		}
	}

	// An unreachable address must not wedge Gets for live ones: start the
	// slow dial first, then fetch the cached live client.
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		cc.Get("10.255.255.1:9") // blackhole; bounded by dial timeout
	}()
	start := time.Now()
	if _, err := cc.Get(srv.Addr()); err != nil {
		t.Fatalf("Get live during dead dial: %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("live Get blocked %v behind dead dial", d)
	}
	select {
	case <-slow:
	case <-time.After(10 * time.Second):
		t.Fatal("dead dial never returned")
	}

	cc.Close()
	if _, err := cc.Get(srv.Addr()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// TestRouteUpdateClampsOutOfRangeFields: a RouteSource handing the server
// unconventional values (weights above 100, negative UIDs/loads) must reach
// stale clients clamped into the wire format's ranges — the parser treats
// out-of-range fields as protocol violations, so an unclamped writer would
// turn one bad weight into a dead connection for every stale caller.
func TestRouteUpdateClampsOutOfRangeFields(t *testing.T) {
	srv := startEcho(t)
	srv.SetRouteSource(func() route.Table {
		return route.Table{Epoch: 3, Members: []route.Member{
			{Addr: "a:1", UID: -5, Weight: 1000, Load: -7},
			{Addr: "b:2", UID: 2, Weight: 50, Load: 4},
		}}
	})
	var mu sync.Mutex
	var got []route.Table
	c, err := DialOpts(srv.Addr(), DialOptions{
		OnRouteUpdate: func(tab route.Table) {
			mu.Lock()
			got = append(got, tab)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Call("svc", "Echo", []byte("x"), 5*time.Second); err != nil {
		t.Fatalf("Call with hostile route source: %v (connection must survive)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("updates = %d, want 1", len(got))
	}
	m := got[0].Members[0]
	if m.UID != 0 || m.Weight != route.DefaultWeight || m.Load != 0 {
		t.Fatalf("clamped member = %+v, want uid 0, weight %d, load 0", m, route.DefaultWeight)
	}
	if got[0].Members[1] != (route.Member{Addr: "b:2", UID: 2, Weight: 50, Load: 4}) {
		t.Fatalf("in-range member altered: %+v", got[0].Members[1])
	}
}
