package infer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slap/internal/nn"
)

// Reference is the golden Backend: every sample goes through the original
// per-sample nn.Model forward pass. Slow, obviously correct, and the
// equivalence baseline for the engine and the coalescer.
type Reference struct {
	M *nn.Model
}

// Classes implements Backend.
func (r Reference) Classes() int { return r.M.Classes }

// InputLen implements Backend.
func (r Reference) InputLen() int { return r.M.Rows * r.M.Cols }

// ForwardBatch implements Backend by calling Predict per sample.
func (r Reference) ForwardBatch(xs [][]float64) ([][]float64, error) {
	in := r.InputLen()
	out := make([][]float64, len(xs))
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("infer: input %d has length %d, want %d", i, len(x), in)
		}
		out[i] = r.M.Predict(x)
	}
	return out, nil
}

// randomModel builds a seeded model with non-trivial normalisation so the
// pack stage is exercised, not just identity-passed.
func randomModel(rows, cols, filters, classes int, seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	m := nn.NewModel(rows, cols, filters, classes, rng)
	for i := range m.Mean {
		m.Mean[i] = rng.NormFloat64()
		m.Std[i] = 0.5 + rng.Float64()
	}
	return m
}

func randomBatch(m *nn.Model, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, m.Rows*m.Cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
	}
	return xs
}

func argmax(p []float64) int {
	best, bi := math.Inf(-1), 0
	for c, v := range p {
		if v > best {
			best, bi = v, c
		}
	}
	return bi
}

// requireBitsEqual fails unless every probability equals nn.Model.Predict's
// bit for bit.
func requireBitsEqual(t *testing.T, m *nn.Model, xs, got [][]float64) {
	t.Helper()
	if len(got) != len(xs) {
		t.Fatalf("%d outputs for %d inputs", len(got), len(xs))
	}
	for i, x := range xs {
		want := m.Predict(x)
		if len(got[i]) != len(want) {
			t.Fatalf("sample %d: %d classes, want %d", i, len(got[i]), len(want))
		}
		for c := range want {
			if g, w := math.Float64bits(got[i][c]), math.Float64bits(want[c]); g != w {
				t.Fatalf("sample %d (pass %d, lane %d) class %d: engine %#x, Predict %#x",
					i, i/passSize, i%passSize, c, g, w)
			}
		}
	}
}

// TestEngineBitIdentityTable is the bit-identity contract of the one layout:
// for the shipped 32-filter shape, the paper's 128-filter shape and odd
// shapes that run every lane, element, filter-block and class-block tail,
// at batch sizes that fill 1..9 lanes, one pass exactly and several passes
// with remainders, engine probabilities are Float64bits-equal to
// nn.Model.Predict on every kernel path this host can run.
func TestEngineBitIdentityTable(t *testing.T) {
	shapes := []struct {
		name                     string
		rows, cols, filters, cls int
	}{
		{"shipped-32f", 15, 10, 32, 10},
		{"paper-128f", 15, 10, 128, 10},
		{"odd-5f-1c-7col", 15, 7, 5, 1},
		{"odd-5f-3c-7col", 15, 7, 5, 3},
		{"odd-5f-12c-7col", 15, 7, 5, 12},
		{"odd-3row-7f-6c", 3, 7, 7, 6},
	}
	batches := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 129}
	forEachPath(t, func(t *testing.T) {
		for si, sh := range shapes {
			t.Run(sh.name, func(t *testing.T) {
				m := randomModel(sh.rows, sh.cols, sh.filters, sh.cls, int64(500+si))
				eng := NewEngine(m, Options{})
				for _, bsz := range batches {
					xs := randomBatch(m, bsz, int64(1000*si+bsz))
					got, err := eng.ForwardBatch(xs)
					if err != nil {
						t.Fatalf("batch %d: %v", bsz, err)
					}
					t.Run(fmt.Sprintf("batch=%d", bsz), func(t *testing.T) {
						requireBitsEqual(t, m, xs, got)
					})
				}
			})
		}
	})
}

// TestReLUSpecialValues feeds conv pre-activations of -0 (zero bias sign and
// all-negative weights over zero inputs) and NaN (a NaN input element), in
// every lane position of the micro-kernels, and checks both kernel paths
// store +0 exactly like the scalar "v > 0 ? v : 0", and that the
// probabilities still match Predict bit for bit.
func TestReLUSpecialValues(t *testing.T) {
	m := randomModel(15, 10, 8, 10, 61)
	const negZeroFilters = 2 // one even and one odd filter row
	for f := 0; f < negZeroFilters; f++ {
		m.ConvB[f] = math.Copysign(0, -1)
		for i := 0; i < m.Rows; i++ {
			m.ConvW[f*m.Rows+i] = -math.Abs(m.ConvW[f*m.Rows+i]) - 0.01
		}
	}
	const nanCol = 3
	xs := randomBatch(m, 2*lanes, 62)
	for b := 0; b < lanes; b++ {
		copy(xs[b], m.Mean) // normalises to +0 everywhere: the -0 filters sum to -0
		xs[lanes+b][2*m.Cols+nanCol] = math.NaN()
	}

	forEachPath(t, func(t *testing.T) {
		eng := NewEngine(m, Options{})
		bp := roundUp(len(xs), lanes)
		sc := eng.getScratch(bp)
		out := make([][]float64, len(xs))
		for b := range out {
			out[b] = make([]float64, m.Classes)
		}
		eng.forward(xs, out, sc)
		cb := m.Cols * bp
		for b := 0; b < lanes; b++ {
			for f := 0; f < negZeroFilters; f++ {
				for j := 0; j < m.Cols; j++ {
					if v := sc.conv[f*cb+j*bp+b]; math.Float64bits(v) != 0 {
						t.Errorf("sample %d filter %d column %d of a -0 pre-activation: relu gave %#x, want +0",
							b, f, j, math.Float64bits(v))
					}
				}
			}
			for f := 0; f < m.Filters; f++ {
				if v := sc.conv[f*cb+nanCol*bp+lanes+b]; math.Float64bits(v) != 0 {
					t.Errorf("sample %d filter %d on a NaN column: relu gave %#x, want +0",
						lanes+b, f, math.Float64bits(v))
				}
			}
		}
		requireBitsEqual(t, m, xs, out)
	})
}

// TestEngineMatchesReference is the golden-equivalence suite: across seeded
// random models (the paper's 128-filter architecture plus odd shapes) and
// batch sizes {1, 7, 64, 1000}, the batched engine must produce the
// identical argmax class and probabilities within 1e-9 of the per-sample
// path. The kernels share the per-sample accumulation order, so the drift
// observed in practice is exactly zero (TestEngineBitIdentityTable pins
// that); the 1e-9 bound is the acceptance ceiling, not the target.
func TestEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name                     string
		rows, cols, filters, cls int
	}{
		{"paper-128f", 15, 10, 128, 10},
		{"odd-7f-3c", 15, 10, 7, 3},
		{"small-5x4-32f-6c", 5, 4, 32, 6},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			m := randomModel(cfg.rows, cfg.cols, cfg.filters, cfg.cls, 41)
			eng := NewEngine(m, Options{})
			ref := Reference{M: m}
			for _, bsz := range []int{1, 7, 64, 1000} {
				xs := randomBatch(m, bsz, int64(bsz))
				got, err := eng.ForwardBatch(xs)
				if err != nil {
					t.Fatalf("batch %d: %v", bsz, err)
				}
				want, err := ref.ForwardBatch(xs)
				if err != nil {
					t.Fatalf("batch %d reference: %v", bsz, err)
				}
				for i := range xs {
					if ga, wa := argmax(got[i]), argmax(want[i]); ga != wa {
						t.Fatalf("batch %d sample %d: argmax %d, reference %d", bsz, i, ga, wa)
					}
					for c := range got[i] {
						if d := math.Abs(got[i][c] - want[i][c]); d > 1e-9 {
							t.Fatalf("batch %d sample %d class %d: |%g - %g| = %g > 1e-9",
								bsz, i, c, got[i][c], want[i][c], d)
						}
					}
				}
			}
		})
	}
}

// TestEngineBitIdentical pins the stronger property the kernels are built
// for: not just 1e-9-close but bit-for-bit equal to nn.Model.Predict, which
// is what makes batched mapping QoR byte-identical.
func TestEngineBitIdentical(t *testing.T) {
	m := randomModel(15, 10, 128, 10, 43)
	xs := randomBatch(m, 129, 44)
	got, err := NewEngine(m, Options{}).ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitsEqual(t, m, xs, got)
}

// TestEnginePassesMatchReference runs a batch that spans three full passes
// and a partial one through the shared scratch and output slab: every
// sample must be bit-equal to the per-sample Reference.
func TestEnginePassesMatchReference(t *testing.T) {
	m := randomModel(15, 10, 32, 10, 47)
	xs := randomBatch(m, 3*passSize+5, 48)
	got, err := NewEngine(m, Options{}).ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitsEqual(t, m, xs, got)
}

func TestEngineValidatesInput(t *testing.T) {
	m := randomModel(15, 10, 8, 10, 45)
	eng := NewEngine(m, Options{})
	if _, err := eng.ForwardBatch([][]float64{make([]float64, 149)}); err == nil {
		t.Fatal("short input accepted")
	}
	if out, err := eng.ForwardBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: out=%v err=%v, want nil/nil", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.PredictBatch(ctx, randomBatch(m, 1, 1)); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestEngineScratchReuse runs mixed batch sizes through one engine so the
// pooled scratch is exercised shrinking and growing; stale scratch contents
// (including the padding lanes) must never leak into results.
func TestEngineScratchReuse(t *testing.T) {
	m := randomModel(15, 10, 16, 10, 46)
	eng := NewEngine(m, Options{})
	for _, bsz := range []int{64, 3, 200, 1, 64, 6} {
		xs := randomBatch(m, bsz, int64(100+bsz))
		got, err := eng.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitsEqual(t, m, xs, got)
	}
}

// TestForwardBatchSteadyStateAllocs pins the pooled scratch: once warm,
// ForwardBatch allocates only the caller-owned output (the slab and its
// row slice), however many passes the batch spans.
func TestForwardBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race (sync.Pool caching is bypassed)")
	}
	m := randomModel(15, 10, 32, 10, 49)
	eng := NewEngine(m, Options{})
	for _, bsz := range []int{37, 2*passSize + 1} {
		xs := randomBatch(m, bsz, int64(bsz))
		if _, err := eng.ForwardBatch(xs); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(100, func() { _, _ = eng.ForwardBatch(xs) }); avg > 2 {
			t.Errorf("batch %d: ForwardBatch allocates %.1f objects/op, want <= 2 (the output)", bsz, avg)
		}
	}
}
