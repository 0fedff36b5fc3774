package transport

import (
	"strings"
	"testing"
)

// TestEncodeSteadyStateAfterLargeBurst checks that a burst of large
// payloads leaves the small-encode steady state intact: the large slabs
// land in their own arena classes, so the per-op allocation cost afterwards
// reflects the small working set, not the largest payload ever seen.
func TestEncodeSteadyStateAfterLargeBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping inner benchmark in -short mode")
	}
	big := strings.Repeat("x", 256<<10)
	for i := 0; i < 8; i++ {
		ReleasePayload(Encode(&echoArgs{Text: big}))
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ReleasePayload(Encode(&echoArgs{Text: "steady", N: i}))
		}
	})
	// A small encode draws a recycled 512 B slab: nothing per op. The bound
	// leaves headroom for a pool refill, far below any burst-sized churn.
	if bpo := res.AllocedBytesPerOp(); bpo > 64 {
		t.Fatalf("small Encode allocates %d B/op after large-payload burst; want <= 64", bpo)
	}
}
