package transport

import (
	"testing"
	"time"
)

// TestLargeFrameRoundTrip and TestSequentialCallsReuseConnection moved to
// fault_test.go (package transport_test), where they run on the shared
// ermitest fault-injection harness.

// TestFrameCorruptionClosesConnection writes garbage to the server; the
// connection dies but the server survives and accepts new connections.
func TestServerSurvivesGarbage(t *testing.T) {
	srv := startEcho(t)
	// Raw TCP garbage.
	raw, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	// A huge declared frame size triggers the maxFrame guard server-side.
	raw.conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	raw.Close()

	// The server still serves fresh clients.
	c := dial(t, srv.Addr())
	payload := Encode(&echoArgs{N: 7})
	out, err := c.Call("svc", "Echo", payload, 5*time.Second)
	if err != nil {
		t.Fatalf("call after garbage: %v", err)
	}
	var got echoArgs
	if err := Decode(out, &got); err != nil || got.N != 7 {
		t.Fatalf("echo = %+v, %v", got, err)
	}
}

// TestResponseAfterTimeoutIsDropped: a late response to a timed-out call
// must not confuse subsequent calls.
func TestResponseAfterTimeoutIsDropped(t *testing.T) {
	srv := startEcho(t)
	c := dial(t, srv.Addr())
	if _, err := c.Call("svc", "Slow", nil, 10*time.Millisecond); err == nil {
		t.Fatal("slow call did not time out")
	}
	// Wait for the late response to arrive and be discarded.
	time.Sleep(250 * time.Millisecond)
	payload := Encode(&echoArgs{N: 9})
	out, err := c.Call("svc", "Echo", payload, 5*time.Second)
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	var got echoArgs
	if err := Decode(out, &got); err != nil || got.N != 9 {
		t.Fatalf("late response leaked into new call: %+v, %v", got, err)
	}
}
