package gentest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"elasticrmi/internal/metrics"
	"elasticrmi/internal/route"
	"elasticrmi/internal/transport"
)

// codecRoundTrip marshals orig through its generated codec, decodes it into a
// fresh value, and requires the result to match both the original and the
// value the gob fallback would have produced — the codec must be a drop-in
// replacement for gob, not a near-miss.
func codecRoundTrip[T any](t *testing.T, orig *T) {
	t.Helper()
	m, ok := any(orig).(transport.Marshaler)
	if !ok {
		t.Fatalf("%T does not implement transport.Marshaler", orig)
	}
	size := m.SizeERMI()
	out := m.MarshalERMI(make([]byte, 0, size))
	if len(out) != size {
		t.Fatalf("%T: SizeERMI = %d but MarshalERMI produced %d bytes", orig, size, len(out))
	}
	var got T
	if err := any(&got).(transport.Unmarshaler).UnmarshalERMI(out); err != nil {
		t.Fatalf("%T: UnmarshalERMI of own encoding: %v", orig, err)
	}
	if !reflect.DeepEqual(got, *orig) {
		t.Fatalf("%T round trip mismatch:\n got %+v\nwant %+v", orig, got, *orig)
	}
	// Gob baseline: the same value pushed through the fallback encoding must
	// decode to the same result (gob cannot encode field-less structs; that
	// is exactly the case the codec handles trivially, so skip it there).
	buf := new(bytes.Buffer)
	if err := gob.NewEncoder(buf).Encode(orig); err != nil {
		return
	}
	var viaGob T
	if err := gob.NewDecoder(buf).Decode(&viaGob); err != nil {
		t.Fatalf("%T: gob baseline decode: %v", orig, err)
	}
	if !reflect.DeepEqual(got, viaGob) {
		t.Fatalf("%T diverges from gob baseline:\ncodec %+v\n  gob %+v", orig, got, viaGob)
	}
}

// stampRoundTrip is codecRoundTrip for StampArgs, whose instant compares
// with time.Equal: neither the codec nor gob keeps the monotonic reading,
// and only gob keeps the location.
func stampRoundTrip(t *testing.T, orig *StampArgs) {
	t.Helper()
	out := orig.MarshalERMI(make([]byte, 0, orig.SizeERMI()))
	if len(out) != orig.SizeERMI() {
		t.Fatalf("StampArgs: SizeERMI = %d but MarshalERMI produced %d bytes", orig.SizeERMI(), len(out))
	}
	var got StampArgs
	if err := got.UnmarshalERMI(out); err != nil {
		t.Fatalf("StampArgs: UnmarshalERMI of own encoding: %v", err)
	}
	sameStamp(t, "round trip", &got, orig)
	buf := new(bytes.Buffer)
	if err := gob.NewEncoder(buf).Encode(orig); err != nil {
		t.Fatalf("StampArgs: gob baseline encode: %v", err)
	}
	var viaGob StampArgs
	if err := gob.NewDecoder(buf).Decode(&viaGob); err != nil {
		t.Fatalf("StampArgs: gob baseline decode: %v", err)
	}
	sameStamp(t, "gob baseline", &got, &viaGob)
}

func sameStamp(t *testing.T, what string, got, want *StampArgs) {
	t.Helper()
	if !got.At.Equal(want.At) || got.At.IsZero() != want.At.IsZero() {
		t.Fatalf("StampArgs %s: At = %v, want %v", what, got.At, want.At)
	}
	g, w := *got, *want
	g.At, w.At = time.Time{}, time.Time{}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("StampArgs %s mismatch:\n got %+v\nwant %+v", what, g, w)
	}
}

// FuzzCodecRoundTrip drives every generated gentest codec with fuzzed field
// values (marshal → unmarshal must be the identity and agree with the gob
// baseline) and with hostile raw bytes (UnmarshalERMI must be total: error
// or success, never a panic, and never accept trailing garbage).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(5), "key", "value", []byte("payload"), []byte{0x01})
	f.Add(int64(-1), "", "", []byte{}, []byte{})
	f.Add(int64(1<<62), "k\x00n", "väl", []byte{0xff, 0xfe}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n int64, key, val string, blob, hostile []byte) {
		codecRoundTrip(t, &BumpArgs{N: n})
		codecRoundTrip(t, &BumpReply{Total: ^n})
		codecRoundTrip(t, &PeekArgs{})
		codecRoundTrip(t, &TagArgs{Key: key, Value: val})
		codecRoundTrip(t, &TagReply{MemberUID: n})
		var first byte
		if len(blob) > 0 {
			first = blob[0]
		}
		codecRoundTrip(t, &BlobReply{Len: int64(len(blob)), First: first})

		// The zero time, the epoch (UnixNano == 0: a real instant the zero
		// flag keeps apart from the zero value) and an arbitrary instant.
		stat := metrics.MethodStat{Method: key, Calls: n, RatePerSec: float64(n) / 3, AvgLatency: time.Duration(n)}
		peers := []route.Member{{Addr: val, UID: n, Weight: int32(n), Load: int32(n >> 32), Draining: n%2 == 0}}
		for _, at := range []time.Time{{}, time.Unix(0, 0), time.Unix(0, n)} {
			stampRoundTrip(t, &StampArgs{At: at})
			stampRoundTrip(t, &StampArgs{At: at, Stat: stat, Peers: peers})
		}

		// BlobArgs decodes Data as a zero-copy view, so nil/empty identity is
		// not preserved — compare contents and assert the view really does
		// alias the encoded buffer rather than copying it.
		ba := &BlobArgs{Data: blob}
		enc := ba.MarshalERMI(make([]byte, 0, ba.SizeERMI()))
		var got BlobArgs
		if err := got.UnmarshalERMI(enc); err != nil {
			t.Fatalf("BlobArgs: UnmarshalERMI of own encoding: %v", err)
		}
		if !bytes.Equal(got.Data, blob) {
			t.Fatalf("BlobArgs round trip mismatch: got %x want %x", got.Data, blob)
		}
		if len(blob) > 0 && &got.Data[0] != &enc[len(enc)-len(blob)] {
			t.Fatal("BlobArgs.Data was copied; expected a zero-copy view into the encoding")
		}

		// Trailing garbage after a valid encoding must be rejected — a codec
		// that silently ignores leftover bytes would mask framing bugs.
		withTrailer := append(append([]byte(nil), enc...), 0x00)
		if err := new(BlobArgs).UnmarshalERMI(withTrailer); err == nil {
			t.Fatal("BlobArgs accepted an encoding with a trailing byte")
		}

		// Hostile input: arbitrary bytes must decode or error, never panic.
		for _, u := range []transport.Unmarshaler{
			&BumpArgs{}, &BumpReply{}, &PeekArgs{}, &TagArgs{},
			&TagReply{}, &BlobArgs{}, &BlobReply{}, &StampArgs{},
		} {
			_ = u.UnmarshalERMI(hostile)
		}
	})
}
