package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"elasticrmi/internal/route"
)

// The wire codec is the trust boundary of every ElasticRMI component: a
// hostile or corrupt peer can put arbitrary bytes on the connection. These
// fuzz targets assert the parsers never panic, never allocate proportionally
// to attacker-declared counts, and are round-trip stable: anything a parser
// accepts re-encodes through the production writers to frames the reader and
// parsers consume back identically. (Byte-exact re-encoding is deliberately
// not asserted — encoding/binary accepts non-minimal varints.) Seeds come
// from the protocol edge cases exercised in protocol_test.go (boundary
// frames, hostile counts and lengths, truncated sections).

// frameBytes renders a full frame (length + header + meta + payload) via the
// production writer so fuzz seeds and re-encodings stay in sync with the
// encoder.
func frameBytes(t testing.TB, write func(w *connWriter) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newConnWriter(&buf)
	if err := write(w); err != nil {
		t.Fatalf("fuzz write: %v", err)
	}
	return buf.Bytes()
}

// reparse reads the single frame in raw and returns its kind and sections.
func reparse(t *testing.T, raw []byte) (frameKind, []byte, []byte) {
	t.Helper()
	kind, meta, payload, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("re-encoded frame rejected by readFrame: %v", err)
	}
	return kind, meta, payload
}

func FuzzReadFrame(f *testing.F) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	f.Add(hdr[:])
	binary.BigEndian.PutUint32(hdr[:], 0)
	f.Add(hdr[:])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})                          // hostile declared length
	f.Add([]byte{0, 0, 0, 2, byte(frameRequest)})                           // size below the fixed header
	f.Add([]byte{0, 0, 0, 10, byte(frameRequest), 0, 0, 0, 0})              // truncated metadata section
	f.Add([]byte{0, 0, 0, 9, byte(frameRequest), 0xFF, 0xFF, 0xFF, 0xFF})   // payload length beyond the frame
	f.Add([]byte{0, 0, 0, 12, byte(frameResponse), 0, 0, 0, 4, 1, 2, 3, 4}) // payload section, truncated
	var t testing.T
	f.Add(frameBytes(&t, func(w *connWriter) error { return w.writeRequest(frameRequest, 7, 3, 1500, "svc", "m", []byte("hi")) }))
	f.Add(frameBytes(&t, func(w *connWriter) error { return w.writeRequest(frameOneWay, 0, 0, 0, "svc", "m", nil) }))
	f.Add(frameBytes(&t, func(w *connWriter) error { return w.writeResponse(9, statusOK, []byte("out"), "", nil, false) }))
	f.Add(frameBytes(&t, func(w *connWriter) error { return w.writeResponse(11, statusOverload, nil, "", nil, false) }))
	f.Add(frameBytes(&t, func(w *connWriter) error {
		return w.writeResponse(4, statusOK, []byte("out"), "", &route.Table{
			Epoch: 8, Members: []route.Member{{Addr: "a:1", UID: 1, Weight: 100, Load: 2}},
		}, false)
	}))
	f.Add(frameBytes(&t, func(w *connWriter) error { return w.writeEvent(3, 1, "key", []byte("ev")) }))

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, meta, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		// A parsed frame's declared size is honored exactly: header plus both
		// sections must fit inside the input.
		if frameHeaderSize+len(meta)+len(payload) > len(data)-4 {
			t.Fatalf("frame sections of %d+%d bytes from %d input bytes", len(meta), len(payload), len(data))
		}
		// Whatever the kind claims, every parser must be total on the bytes.
		switch kind {
		case frameRequest, frameOneWay:
			_, _ = parseRequest(meta, payload, nil)
		case frameResponse:
			var res callResult
			_, _ = parseResponse(meta, payload, &res)
		case frameEvent:
			var ev Event
			_ = parseEvent(meta, payload, &ev)
		}
	})
}

func FuzzParseRequest(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{7, 2, 0, 1, 's', 1, 'm'}, []byte("payload"))
	f.Add(binary.AppendUvarint(nil, 1<<40), []byte{}) // seq only, then truncation
	seed := binary.AppendUvarint(nil, 3)
	seed = binary.AppendUvarint(seed, 1)
	seed = binary.AppendUvarint(seed, 0)
	seed = binary.AppendUvarint(seed, 200) // service length beyond the meta
	f.Add(seed, []byte{})

	f.Fuzz(func(t *testing.T, meta, payload []byte) {
		req, err := parseRequest(meta, payload, nil)
		if err != nil {
			return
		}
		budget := budgetMicros(req.Budget)
		if frameHeaderSize+requestMetaSize(req.Seq, req.Epoch, budget, req.Service, req.Method)+len(req.Payload) > MaxFrame {
			return // the writer refuses oversize frames by design
		}
		// Round-trip stability: what the parser accepted re-encodes to a
		// frame it parses back field-identically.
		out := frameBytes(t, func(w *connWriter) error {
			return w.writeRequest(frameRequest, req.Seq, req.Epoch, budget, req.Service, req.Method, req.Payload)
		})
		kind, meta2, payload2 := reparse(t, out)
		if kind != frameRequest {
			t.Fatalf("re-encoded request came back as kind %d", kind)
		}
		again, err := parseRequest(meta2, payload2, nil)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if again.Seq != req.Seq || again.Epoch != req.Epoch || again.Budget != req.Budget ||
			again.Service != req.Service ||
			again.Method != req.Method || !bytes.Equal(again.Payload, req.Payload) {
			t.Fatalf("round trip drifted: %+v != %+v", again, req)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add([]byte{}, []byte{})
	// A hostile route-member count: declared 67M entries backed by 64 bytes.
	hostile := binary.AppendUvarint(nil, 9)
	hostile = binary.AppendUvarint(hostile, 0) // status
	hostile = binary.AppendUvarint(hostile, 0)
	hostile = binary.AppendUvarint(hostile, 12) // route epoch
	hostile = binary.AppendUvarint(hostile, 67_000_000)
	hostile = append(hostile, make([]byte, 64)...)
	f.Add(hostile, []byte{})
	// A well-formed error + route-update meta with a payload section.
	ok := binary.AppendUvarint(nil, 4)
	ok = binary.AppendUvarint(ok, 0) // status
	ok = binary.AppendUvarint(ok, 4)
	ok = append(ok, "boom"...)
	ok = binary.AppendUvarint(ok, 2) // route epoch
	ok = binary.AppendUvarint(ok, 1) // member count
	ok = binary.AppendUvarint(ok, 3)
	ok = append(ok, "a:1"...)
	ok = binary.AppendUvarint(ok, 7)   // uid
	ok = binary.AppendUvarint(ok, 100) // weight
	ok = binary.AppendUvarint(ok, 5)   // load
	ok = append(ok, 0)                 // flags
	f.Add(ok, []byte("result"))

	f.Fuzz(func(t *testing.T, meta, payload []byte) {
		var res callResult
		seq, err := parseResponse(meta, payload, &res)
		if err != nil {
			// The count guard must hold even on rejected bodies: storage
			// never grows proportionally to a declared member count.
			if res.route != nil && len(res.route.Members) > len(meta) {
				t.Fatalf("rejected meta of %d bytes materialized %d route members", len(meta), len(res.route.Members))
			}
			return
		}
		if res.route != nil && (res.route.Epoch == 0 || len(res.route.Members) > maxRouteMembers) {
			t.Fatalf("accepted invalid route update: %+v", res.route)
		}
		if responseFrameSize(seq, res.status, res.payload, res.errMsg, res.route) > MaxFrame {
			return // the writer degrades oversize responses by design
		}
		out := frameBytes(t, func(w *connWriter) error {
			return w.writeResponse(seq, res.status, res.payload, res.errMsg, res.route, false)
		})
		kind, meta2, payload2 := reparse(t, out)
		if kind != frameResponse {
			t.Fatalf("re-encoded response came back as kind %d", kind)
		}
		var again callResult
		seq2, err := parseResponse(meta2, payload2, &again)
		if err != nil {
			t.Fatalf("re-encoded response rejected: %v", err)
		}
		if seq2 != seq || again.status != res.status || again.errMsg != res.errMsg || !bytes.Equal(again.payload, res.payload) {
			t.Fatalf("round trip drifted: %+v != %+v", again, res)
		}
		if (again.route == nil) != (res.route == nil) {
			t.Fatalf("route presence drifted: %+v != %+v", again.route, res.route)
		}
		if res.route != nil {
			if again.route.Epoch != res.route.Epoch || len(again.route.Members) != len(res.route.Members) {
				t.Fatalf("route drifted: %+v != %+v", again.route, res.route)
			}
			for i := range res.route.Members {
				if again.route.Members[i] != res.route.Members[i] {
					t.Fatalf("route member %d drifted: %+v != %+v", i, again.route.Members[i], res.route.Members[i])
				}
			}
		}
	})
}
