// Fault-injection tests for the transport, running on the shared ermitest
// harness (external test package: ermitest depends on transport, so these
// cannot live in package transport). TestLargeFrameRoundTrip and
// TestSequentialCallsReuseConnection migrated here from
// transport_more_test.go.
package transport_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"elasticrmi/internal/ermitest"
	"elasticrmi/internal/gen/gentest"
	"elasticrmi/internal/transport"
)

func echoHandler(req *transport.Request) ([]byte, error) {
	return req.Payload, nil
}

// TestLargeFrameRoundTrip pushes a multi-megabyte payload through the
// framed protocol (on a healthy fault-wrapped listener: the wrapping itself
// must be transparent).
func TestLargeFrameRoundTrip(t *testing.T) {
	srv := ermitest.ServeFaulty(t, echoHandler, ermitest.NewFault())
	c := ermitest.DialServer(t, srv)
	big := bytes.Repeat([]byte{0xAB}, 4<<20)
	payload := transport.Encode(&gentest.TagArgs{Value: string(big)})
	out, err := c.Call("svc", "Echo", payload, 30*time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	var got gentest.TagArgs
	if err := transport.Decode(out, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Value) != len(big) {
		t.Fatalf("round trip %d bytes, want %d", len(got.Value), len(big))
	}
}

// TestSequentialCallsReuseConnection verifies many calls work over one
// connection without resource buildup.
func TestSequentialCallsReuseConnection(t *testing.T) {
	srv := ermitest.ServeFaulty(t, echoHandler, ermitest.NewFault())
	c := ermitest.DialServer(t, srv)
	payload := transport.Encode(&gentest.BumpArgs{N: 1})
	for i := 0; i < 500; i++ {
		if _, err := c.Call("svc", "Echo", payload, 5*time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestInjectedLatencySlowsCalls: calls against a high-latency network take
// at least the injected delay but still succeed.
func TestInjectedLatencySlowsCalls(t *testing.T) {
	f := ermitest.NewFault()
	srv := ermitest.ServeFaulty(t, echoHandler, f)
	c := ermitest.DialServer(t, srv)

	// Warm up the connection (preamble, first frame) before degrading.
	if _, err := c.Call("svc", "Echo", []byte("warm"), 5*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	const delay = 20 * time.Millisecond
	f.SetLatency(delay)
	start := time.Now()
	if _, err := c.Call("svc", "Echo", []byte("slow"), 10*time.Second); err != nil {
		t.Fatalf("call under latency: %v", err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("call took %v under %v injected latency", took, delay)
	}
	f.Clear()
}

// TestPartitionStallsThenHeals: a partition freezes an in-flight call
// without failing it; healing releases it with no bytes lost.
func TestPartitionStallsThenHeals(t *testing.T) {
	f := ermitest.NewFault()
	srv := ermitest.ServeFaulty(t, echoHandler, f)
	c := ermitest.DialServer(t, srv)
	if _, err := c.Call("svc", "Echo", []byte("warm"), 5*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	f.Partition(true)
	done := make(chan error, 1)
	go func() {
		out, err := c.Call("svc", "Echo", []byte("partitioned"), 30*time.Second)
		if err == nil && string(out) != "partitioned" {
			err = errors.New("wrong payload after heal")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("call completed across a partition: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	f.Partition(false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after heal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call never completed after the partition healed")
	}
}

// TestDroppedWritesKillConnectionNotServer: silently discarded writes
// corrupt one connection's stream; the affected client fails but the server
// keeps serving fresh connections.
func TestDroppedWritesKillConnectionNotServer(t *testing.T) {
	f := ermitest.NewFault()
	srv := ermitest.ServeFaulty(t, echoHandler, f)
	victim := ermitest.DialServer(t, srv)
	if _, err := victim.Call("svc", "Echo", []byte("warm"), 5*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	f.DropEveryN(2) // every second server write vanishes
	sawFailure := false
	for i := 0; i < 20 && !sawFailure; i++ {
		if _, err := victim.Call("svc", "Echo", []byte{byte(i)}, 250*time.Millisecond); err != nil {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("no call failed while half the server's writes were dropped")
	}
	f.Clear()
	fresh := ermitest.DialServer(t, srv)
	out, err := fresh.Call("svc", "Echo", []byte("alive"), 5*time.Second)
	if err != nil || string(out) != "alive" {
		t.Fatalf("server unusable after lossy episode: %q, %v", out, err)
	}
}

// TestTruncatedFrameKillsConnectionNotServer: a server that dies mid-frame
// (truncated write, then close) fails the in-flight call cleanly; the
// listener keeps accepting.
func TestTruncatedFrameKillsConnectionNotServer(t *testing.T) {
	f := ermitest.NewFault()
	srv := ermitest.ServeFaulty(t, echoHandler, f)
	victim := ermitest.DialServer(t, srv)
	if _, err := victim.Call("svc", "Echo", []byte("warm"), 5*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	f.TruncateAfter(16) // the next response is cut mid-frame
	if _, err := victim.Call("svc", "Echo", bytes.Repeat([]byte{1}, 256), 5*time.Second); err == nil {
		t.Fatal("call succeeded across a truncated response frame")
	}
	if _, err := victim.Call("svc", "Echo", []byte("again"), time.Second); err == nil {
		t.Fatal("connection survived a mid-frame close")
	}
	f.Clear()
	fresh := ermitest.DialServer(t, srv)
	out, err := fresh.Call("svc", "Echo", []byte("alive"), 5*time.Second)
	if err != nil || string(out) != "alive" {
		t.Fatalf("server unusable after truncation episode: %q, %v", out, err)
	}
}

// TestAsyncPipelineSurvivesLatency: a window of concurrent calls over a
// degraded network completes in roughly one round trip's worth of injected
// latency, not one per call — the point of pipelining.
func TestAsyncPipelineSurvivesLatency(t *testing.T) {
	f := ermitest.NewFault()
	srv := ermitest.ServeFaulty(t, echoHandler, f)
	c := ermitest.DialServer(t, srv)
	if _, err := c.Call("svc", "Echo", []byte("warm"), 5*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	const delay = 10 * time.Millisecond
	f.SetLatency(delay)
	const n = 16
	start := time.Now()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			out, err := c.Call("svc", "Echo", []byte{byte(i)}, 30*time.Second)
			if err == nil && !bytes.Equal(out, []byte{byte(i)}) {
				err = fmt.Errorf("call %d got %v", i, out)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	f.Clear()
	// Sequential sync would pay >= n * delay (server-side read + write
	// stalls per call); the pipeline must come in well under half that.
	if took > time.Duration(n)*delay/2 {
		t.Fatalf("pipelined window took %v; latency is being paid per call (sequential cost %v)",
			took, time.Duration(n)*delay)
	}
}
