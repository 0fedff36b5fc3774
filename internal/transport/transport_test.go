package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/ermic"
	"elasticrmi/internal/route"
)

// echoArgs is the payload of this package's tests. A generated package
// cannot be imported here (it would import transport back), so its codec
// is written out in the shape ermi-gen emits.
type echoArgs struct {
	Text string
	N    int
}

func (v *echoArgs) SizeERMI() int {
	return ermic.SizeBytes(len(v.Text)) + ermic.SizeVarint(int64(v.N))
}

func (v *echoArgs) MarshalERMI(b []byte) []byte {
	return ermic.AppendVarint(ermic.AppendString(b, v.Text), int64(v.N))
}

func (v *echoArgs) UnmarshalERMI(b []byte) error {
	text, b, err := ermic.ConsumeString(b)
	if err != nil {
		return err
	}
	n, b, err := ermic.ConsumeVarint(b)
	if err != nil {
		return err
	}
	if len(b) != 0 {
		return ermic.ErrMalformed
	}
	v.Text, v.N = text, int(n)
	return nil
}

func startEcho(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		switch req.Method {
		case "Echo":
			return req.Payload, nil
		case "Fail":
			return nil, errors.New("boom")
		case "Slow":
			time.Sleep(200 * time.Millisecond)
			return req.Payload, nil
		default:
			return nil, fmt.Errorf("unknown method %q", req.Method)
		}
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRoundTrip(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	payload := Encode(&echoArgs{Text: "hello", N: 42})
	out, err := c.Call("svc", "Echo", payload, time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	var got echoArgs
	if err := Decode(out, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Text != "hello" || got.N != 42 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestRemoteError(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	_, err := c.Call("svc", "Fail", nil, time.Second)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if remote.Msg != "boom" || remote.Method != "Fail" {
		t.Fatalf("remote = %+v", remote)
	}
}

// TestRouteUpdatePiggyback drives the epoch protocol end to end: a client
// behind the server's epoch receives the server's routing table on its very
// next reply; once caught up, replies stop carrying the table.
func TestRouteUpdatePiggyback(t *testing.T) {
	srv := startEcho(t)
	table := route.Table{Epoch: 7, Members: []route.Member{
		{Addr: "a:1", UID: 1, Weight: 100, Load: 3},
		{Addr: "b:2", UID: 2, Weight: 50, Load: 0, Draining: true},
	}}
	srv.SetRouteSource(func() route.Table { return table })

	var mu sync.Mutex
	var epoch uint64
	var got []route.Table
	c, err := DialOpts(srv.Addr(), DialOptions{
		Epoch: func() uint64 { mu.Lock(); defer mu.Unlock(); return epoch },
		OnRouteUpdate: func(tab route.Table) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, tab)
			if tab.Epoch > epoch {
				epoch = tab.Epoch
			}
		},
	})
	if err != nil {
		t.Fatalf("DialOpts: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	if _, err := c.Call("svc", "Echo", []byte("x"), time.Second); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mu.Lock()
	if len(got) != 1 || got[0].Epoch != 7 || len(got[0].Members) != 2 {
		mu.Unlock()
		t.Fatalf("route updates after stale call = %+v", got)
	}
	if got[0].Members[1] != table.Members[1] {
		mu.Unlock()
		t.Fatalf("member drifted: %+v != %+v", got[0].Members[1], table.Members[1])
	}
	mu.Unlock()

	// Caught up: the next reply must not repeat the table.
	if _, err := c.Call("svc", "Echo", []byte("y"), time.Second); err != nil {
		t.Fatalf("Call: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("current client still received %d updates", len(got))
	}
}

func TestCallTimeout(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	_, err := c.Call("svc", "Slow", nil, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	const n = 32
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := Encode(&echoArgs{N: i})
			out, err := c.Call("svc", "Echo", payload, 2*time.Second)
			if err != nil {
				errCh <- err
				return
			}
			var got echoArgs
			if err := Decode(out, &got); err != nil {
				errCh <- err
				return
			}
			if got.N != i {
				errCh <- fmt.Errorf("call %d got %d (responses crossed)", i, got.N)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		close(started) // handler provably in flight before the close below
		<-release
		return req.Payload, nil
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer close(release) // let the parked handler finish so Close can return
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv.Addr())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call("svc", "Slow", nil, 5*time.Second)
		done <- err
	}()
	<-started
	go srv.Close() // Close waits for the handler; run it alongside the check
	if err := <-done; err == nil {
		t.Fatal("call survived server close")
	}
}

func TestCallAfterClientClose(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	c.Close()
	if _, err := c.Call("svc", "Echo", nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := DialOpts("127.0.0.1:1", DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestServeNilHandler(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil) succeeded")
	}
}

// TestEncodeDecodeTypes pins the payload codec contract: Encode produces
// exactly SizeERMI bytes, Decode inverts it, and malformed input surfaces
// as an error wrapping ermic.ErrMalformed.
func TestEncodeDecodeTypes(t *testing.T) {
	in := echoArgs{Text: "päyload", N: -3}
	raw := Encode(&in)
	if len(raw) != in.SizeERMI() {
		t.Fatalf("Encode produced %d bytes, SizeERMI = %d", len(raw), in.SizeERMI())
	}
	var out echoArgs
	if err := Decode(raw, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out != in {
		t.Fatalf("decode mismatch: %+v, want %+v", out, in)
	}
	if err := Decode(append(raw, 0), &out); !errors.Is(err, ermic.ErrMalformed) {
		t.Fatalf("Decode with trailing byte = %v, want ErrMalformed", err)
	}
	if err := Decode(raw[:1], &out); !errors.Is(err, ermic.ErrMalformed) {
		t.Fatalf("Decode of truncated payload = %v, want ErrMalformed", err)
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	srv, err := Serve("127.0.0.1:0", func(req *Request) ([]byte, error) {
		return req.Payload, nil
	})
	if err != nil {
		b.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	payload := Encode(&echoArgs{Text: "bench", N: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("svc", "Echo", payload, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
