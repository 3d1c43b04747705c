//go:build amd64

package infer

import (
	"math"
	"math/rand"
	"testing"
)

// forEachPath runs f on every kernel path this host can run: the AVX
// kernels when the CPU has them, then the portable Go kernels, forced by
// clearing hasAVX (a package variable only on amd64, hence the build tag).
func forEachPath(t *testing.T, f func(t *testing.T)) {
	if hasAVX {
		t.Run("avx", f)
		hasAVX = false
		defer func() { hasAVX = true }()
	}
	t.Run("portable", f)
}

// TestEngineScalarFallback forces the portable kernels on AVX hosts so the
// non-amd64 code keeps its bit-identity guarantee under test, on the shipped
// 32-filter and the paper's 128-filter shapes, across lane tails and a
// multi-pass batch.
func TestEngineScalarFallback(t *testing.T) {
	if !hasAVX {
		t.Skip("already running the portable path")
	}
	hasAVX = false
	defer func() { hasAVX = true }()

	for _, filters := range []int{32, 128} {
		m := randomModel(15, 10, filters, 10, 43)
		eng := NewEngine(m, Options{})
		for _, bsz := range []int{1, 7, 64, 2*passSize + 3} {
			xs := randomBatch(m, bsz, int64(200+bsz))
			got, err := eng.ForwardBatch(xs)
			if err != nil {
				t.Fatal(err)
			}
			requireBitsEqual(t, m, xs, got)
		}
	}
}

// TestDenseScalarFallback pins the AVX dense kernel to the portable one on
// the same conv output, logit for logit and bit for bit. Class counts cover
// a whole class block (5), the shipped 10, and padded blocks (1, 3, 12);
// bp values cover whole 8-sample blocks, the 4-sample remainder, and both.
func TestDenseScalarFallback(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: dense kernel not in play")
	}
	for _, classes := range []int{1, 3, 5, 10, 12} {
		m := randomModel(15, 10, 32, classes, int64(47+classes))
		eng := NewEngine(m, Options{})
		if eng.cp%classBlock != 0 || eng.cp < classes || len(eng.denseWT) != m.Filters*m.Cols*eng.cp {
			t.Fatalf("classes=%d: padded dense weights are %d classes, %d values", classes, eng.cp, len(eng.denseWT))
		}
		for _, bp := range []int{4, 8, 12, 64} {
			rng := rand.New(rand.NewSource(int64(bp)))
			act := make([]float64, m.Filters*m.Cols*bp)
			for i := range act {
				act[i] = relu(rng.NormFloat64())
			}
			avx := make([]float64, eng.cp*bp)
			eng.dense(act, avx, bp)
			hasAVX = false
			portable := make([]float64, eng.cp*bp)
			eng.dense(act, portable, bp)
			hasAVX = true
			for c := 0; c < classes; c++ {
				for b := 0; b < bp; b++ {
					a, p := avx[c*bp+b], portable[c*bp+b]
					if math.Float64bits(a) != math.Float64bits(p) {
						t.Fatalf("classes=%d bp=%d class %d lane %d: AVX %#x, portable %#x",
							classes, bp, c, b, math.Float64bits(a), math.Float64bits(p))
					}
				}
			}
		}
	}
}
