package proxy

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFlushScaling measures FlushAll wall time over an emulated
// 20 ms RTT WAN link for 32 dirty blocks as the worker count grows.
// The flush is round-trip bound, so wall time should fall roughly
// linearly with workers until the link pipeline saturates; flush-ms
// per worker count is the reported metric.
func BenchmarkFlushScaling(b *testing.B) {
	const blocks = 32
	rtt := 20 * time.Millisecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += timeFlush(b, workers, blocks, rtt)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "flush-ms")
		})
	}
}
