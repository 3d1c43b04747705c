package infer

import (
	"fmt"
	"testing"
)

// BenchmarkBatchForward measures the engine's throughput, in ns/sample, at
// several batch sizes on the shipped model shape (slap-train's default of 32
// filters) and the paper's 128 filters. ns/sample is the number to compare
// with BenchmarkPerSamplePredict, the one-sample-at-a-time nn.Model path.
func BenchmarkBatchForward(b *testing.B) {
	for _, filters := range []int{32, 128} {
		m := randomModel(15, 10, filters, 10, 91)
		eng := NewEngine(m, Options{})
		for _, bsz := range []int{1, 7, 64, 256, 1000} {
			xs := randomBatch(m, bsz, int64(bsz))
			b.Run(fmt.Sprintf("filters=%d/batch=%d", filters, bsz), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.ForwardBatch(xs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsz), "ns/sample")
			})
		}
	}
}

// BenchmarkPerSamplePredict is the single-thread per-sample baseline the
// batched numbers are compared against.
func BenchmarkPerSamplePredict(b *testing.B) {
	for _, filters := range []int{32, 128} {
		m := randomModel(15, 10, filters, 10, 91)
		xs := randomBatch(m, 64, 64)
		b.Run(fmt.Sprintf("filters=%d", filters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Predict(xs[i%len(xs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
		})
	}
}
