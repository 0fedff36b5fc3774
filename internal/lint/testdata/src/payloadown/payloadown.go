// Payload-ownership fixtures: each mutant/fixed pair doubles as the
// mutation check for one invariant — the buggy form must be flagged, the
// idiomatic form must stay clean.
package payloadown

import "transport"

// wireReq stands in for a generated viewy codec type: its Val field is a
// zero-copy view into the payload it was decoded from.
type wireReq struct {
	Key string
	Val []byte
}

func (*wireReq) ERMIViews()                   {}
func (*wireReq) UnmarshalERMI(b []byte) error { return nil }

// ack stands in for a generated reply codec.
type ack struct{}

func (*ack) SizeERMI() int               { return 0 }
func (*ack) MarshalERMI(b []byte) []byte { return b }

type server struct {
	cache map[string][]byte
	last  wireReq
}

var updates = make(chan []byte, 1)

func sink(b []byte) {}

// storeNoRetain lets a decoded view escape into the receiver's cache
// without detaching the slab: the classic use-after-recycle.
func (s *server) storeNoRetain(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	s.cache[r.Key] = r.Val // want `escapes the handler .* without req\.Retain`
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// storeRetain is the fixed form: Retain before the escape.
func (s *server) storeRetain(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	req.Retain()
	s.cache[r.Key] = r.Val
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// retainInBranch guards only one path: the escape below the if is not
// covered by a Retain inside it.
func (s *server) retainInBranch(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	if len(r.Val) > 8 {
		req.Retain()
	}
	s.cache[r.Key] = r.Val // want `escapes the handler .* without req\.Retain`
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// storeCopy copies the view out of the frame — the sanctioned idiom — so
// nothing payload-derived escapes.
func (s *server) storeCopy(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	s.cache[r.Key] = append([]byte(nil), r.Val...)
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// droppedRelease is the registry mutant: every successful reply is
// transport.Encode output, but the handler never hands ownership over, so
// the reply slab leaks out of the arena.
func droppedRelease(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	return transport.Encode(&ack{}), nil // want `without setting req\.ReleaseReply = true`
}

// properRelease is the fixed form.
func properRelease(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// releasedEncodedLocal returns Encode output through a local; the release
// mark still covers it.
func releasedEncodedLocal(req *transport.Request) ([]byte, error) {
	out := transport.Encode(&ack{})
	req.ReleaseReply = true
	return out, nil
}

// echoReleased marks a payload-derived reply as arena-owned: the
// transport would recycle a buffer the handler never owned.
func echoReleased(req *transport.Request) ([]byte, error) {
	req.ReleaseReply = true
	return req.Payload, nil // want `payload-derived memory with req\.ReleaseReply set`
}

// echo returns the payload without the release mark: fine, the slab stays
// with the request.
func echo(req *transport.Request) ([]byte, error) {
	return req.Payload, nil
}

// goroutineCapture hands a view to a goroutine that outlives the handler.
func goroutineCapture(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	go func() {
		sink(r.Val) // want `captured by a spawned goroutine`
	}()
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// goroutineRetained is the fixed form of the same shape.
func goroutineRetained(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	req.Retain()
	go func() {
		sink(r.Val)
	}()
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// channelSend publishes the raw payload to another goroutine.
func channelSend(req *transport.Request) ([]byte, error) {
	updates <- req.Payload // want `sent on a channel`
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}

// syncUse passes views to ordinary synchronous calls: the callee finishes
// inside the handler's lifetime, no escape.
func syncUse(req *transport.Request) ([]byte, error) {
	var r wireReq
	if err := transport.Decode(req.Payload, &r); err != nil {
		return nil, err
	}
	sink(r.Val)
	req.ReleaseReply = true
	return transport.Encode(&ack{}), nil
}
