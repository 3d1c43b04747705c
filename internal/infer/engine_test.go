package infer

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"slap/internal/nn"
)

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

// TestEngineMatchesReference is the golden-equivalence suite: across seeded
// random models (the paper's 128-filter architecture plus odd shapes that
// stress the micro-kernel tails) and batch sizes {1, 7, 64, 1000}, the
// batched engine must produce the identical argmax class and probabilities
// within 1e-9 of the per-sample path. The kernels share the per-sample
// accumulation order, so the drift observed in practice is exactly zero;
// the 1e-9 bound is the acceptance criterion's ceiling, not the target.
func TestEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name                     string
		rows, cols, filters, cls int
		workers                  int
	}{
		{"paper-128f", 15, 10, 128, 10, 1},
		{"paper-128f-parallel", 15, 10, 128, 10, 4},
		{"odd-7f-3c", 15, 10, 7, 3, 1},
		{"small-5x4-32f-6c", 5, 4, 32, 6, 2},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			m := randomModel(cfg.rows, cfg.cols, cfg.filters, cfg.cls, 41)
			eng := NewEngine(m, Options{Workers: cfg.workers})
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
	eng := NewEngine(m, Options{})
	xs := randomBatch(m, 129, 44)
	got, err := eng.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := m.Predict(x)
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("sample %d class %d: batched %x, per-sample %x",
					i, c, math.Float64bits(got[i][c]), math.Float64bits(want[c]))
			}
		}
	}
}

// TestEnginePassesMatchReference runs a batch that spans three full passes
// and a partial one through the shared scratch and output slab: every
// sample must be bit-equal to the per-sample Reference.
func TestEnginePassesMatchReference(t *testing.T) {
	m := randomModel(15, 10, 32, 10, 47)
	xs := randomBatch(m, 3*passSize+5, 48)
	want, err := Reference{M: m}.ForwardBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		got, err := NewEngine(m, Options{Workers: workers}).ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(xs) {
			t.Fatalf("workers=%d: %d outputs for %d inputs", workers, len(got), len(xs))
		}
		for i := range xs {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("workers=%d sample %d (pass %d) class %d: %x, reference %x", workers, i, i/passSize, c,
						math.Float64bits(got[i][c]), math.Float64bits(want[i][c]))
				}
			}
		}
	}
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
// must never leak into results.
func TestEngineScratchReuse(t *testing.T) {
	m := randomModel(15, 10, 16, 10, 46)
	eng := NewEngine(m, Options{})
	ref := Reference{M: m}
	for _, bsz := range []int{64, 3, 200, 1, 64} {
		xs := randomBatch(m, bsz, int64(100+bsz))
		got, err := eng.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ref.ForwardBatch(xs)
		for i := range xs {
			for c := range got[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("batch %d sample %d: scratch reuse corrupted results", bsz, i)
				}
			}
		}
	}
}
