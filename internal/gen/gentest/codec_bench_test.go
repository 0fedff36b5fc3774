package gentest

import (
	"bytes"
	"encoding/gob"
	"testing"

	"elasticrmi/internal/transport"
)

// gobBlob mirrors BlobArgs for the gob reference: the same struct shape
// pushed through encoding/gob the way the transport once did for payloads
// without a generated codec (a fresh encoder and decoder per payload, so
// every round trip carries gob's type description). The pair measures what
// the generated codec buys at each payload size.
type gobBlob struct{ Data []byte }

// benchmarkCodecRoundTrip measures one Encode+Decode cycle of a
// codec-annotated payload through the transport's arena pipeline.
func benchmarkCodecRoundTrip(b *testing.B, n int) {
	arg := BlobArgs{Data: make([]byte, n)}
	for i := range arg.Data {
		arg.Data[i] = byte(i)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := transport.Encode(&arg)
		var out BlobArgs
		if err := transport.Decode(buf, &out); err != nil {
			b.Fatal(err)
		}
		// BlobArgs decodes as a zero-copy view into buf; this loop's use of
		// the view ends here, so the slab can go back to the arena.
		transport.ReleasePayload(buf)
	}
}

// benchmarkGobRoundTrip is the same cycle through the gob reference.
func benchmarkGobRoundTrip(b *testing.B, n int) {
	arg := gobBlob{Data: make([]byte, n)}
	for i := range arg.Data {
		arg.Data[i] = byte(i)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(&arg); err != nil {
			b.Fatal(err)
		}
		var out gobBlob
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodec64B(b *testing.B)   { benchmarkCodecRoundTrip(b, 64) }
func BenchmarkCodec4KB(b *testing.B)   { benchmarkCodecRoundTrip(b, 4<<10) }
func BenchmarkCodec256KB(b *testing.B) { benchmarkCodecRoundTrip(b, 256<<10) }

func BenchmarkGob64B(b *testing.B)   { benchmarkGobRoundTrip(b, 64) }
func BenchmarkGob4KB(b *testing.B)   { benchmarkGobRoundTrip(b, 4<<10) }
func BenchmarkGob256KB(b *testing.B) { benchmarkGobRoundTrip(b, 256<<10) }
