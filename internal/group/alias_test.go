package group

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// TestDeliveredPayloadsSurviveFrameReuse is the regression test for the
// zero-copy aliasing hazard: a decoded Deliver message's payload is a view
// into the request frame, and the transport recycles that frame once the
// handler returns, while the message is consumed later from the Messages
// channel. Many distinct broadcasts, plus unrelated same-sized traffic
// into the receiver, reuse the recycled slabs; every message collected
// before any is checked must still carry its own bytes.
func TestDeliveredPayloadsSurviveFrameReuse(t *testing.T) {
	members := startMembers(t, 2, 0)
	sender, receiver := members[0], members[1]
	const n, size = 100, 200 // n stays under the Messages buffer: nothing is dropped
	payload := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i)}, size)
		binary.BigEndian.PutUint32(b, uint32(i))
		return b
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := transport.Dial(receiver.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		noise := bytes.Repeat([]byte{0xEE}, size+32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = c.Call(serviceName, "Ping", noise, time.Second)
		}
	}()
	for i := 0; i < n; i++ {
		if err := sender.Broadcast("t", payload(i)); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// Each payload must arrive intact and exactly once: a recycled slab
	// shows up as corrupt bytes or as a copy of a later message.
	seen := make([]bool, n)
	for _, msg := range collect(t, receiver, n, 5*time.Second) {
		i := int(binary.BigEndian.Uint32(msg.Payload))
		if i >= n || seen[i] || !bytes.Equal(msg.Payload, payload(i)) {
			t.Fatalf("delivered payload was overwritten after its frame was recycled: %x", msg.Payload[:8])
		}
		seen[i] = true
	}
}
