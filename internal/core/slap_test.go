package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// small is the scaled-down model every pipeline test shares: training is
// deterministic and dominates these tests' runtime (most of all under
// -race), so it runs once.
var small struct {
	once sync.Once
	s    *SLAP
	rep  *TrainReport
	err  error
}

// trainSmall returns a private copy of the shared scaled-down SLAP (the
// model and report are shared read-only); the accuracy bar is modest
// because the point of these tests is pipeline correctness, not QoR.
func trainSmall(t testing.TB) (*SLAP, *TrainReport) {
	t.Helper()
	small.once.Do(func() {
		small.s, small.rep, small.err = Train(TrainOptions{
			Library:        library.ASAP7ish(),
			MapsPerCircuit: 60,
			Epochs:         10,
			Filters:        16,
			Seed:           7,
		})
	})
	if small.err != nil {
		t.Fatal(small.err)
	}
	s := *small.s
	return &s, small.rep
}

func TestTrainEndToEnd(t *testing.T) {
	_, rep := trainSmall(t)
	if rep.Samples == 0 || rep.TrainSamples == 0 || rep.ValSamples == 0 {
		t.Fatalf("empty dataset: %+v", rep)
	}
	if rep.TrainSamples+rep.ValSamples != rep.Samples {
		t.Fatalf("split inconsistent")
	}
	if len(rep.History) != 10 {
		t.Fatalf("history has %d epochs", len(rep.History))
	}
	if rep.History[len(rep.History)-1].Loss >= rep.History[0].Loss {
		t.Fatalf("training loss did not decrease: %v -> %v",
			rep.History[0].Loss, rep.History[len(rep.History)-1].Loss)
	}
	// The binary keep/drop task is much easier than the 10-class task
	// (paper: 93.4% vs 34%). Even this scaled-down model must beat chance
	// comfortably and the 10-class accuracy on both.
	if rep.BinaryAccuracy < 0.6 {
		t.Fatalf("binary accuracy %.3f too low", rep.BinaryAccuracy)
	}
	if rep.BinaryAccuracy <= rep.MultiClassAccuracy {
		t.Fatalf("binary accuracy (%.3f) should exceed 10-class accuracy (%.3f)",
			rep.BinaryAccuracy, rep.MultiClassAccuracy)
	}
	sum := 0
	for _, c := range rep.ClassHistogram {
		sum += c
	}
	if sum != rep.Samples {
		t.Fatalf("class histogram inconsistent")
	}
}

func TestTrainRequiresLibrary(t *testing.T) {
	if _, _, err := Train(TrainOptions{}); err == nil {
		t.Fatalf("Train without library must fail")
	}
}

func TestFilterCutsStructure(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.CarryLookaheadAdder(8)
	res := s.FilterCuts(g)
	unl := (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}}).Run()
	if res.TotalCuts <= 0 {
		t.Fatalf("no cuts survived filtering")
	}
	if res.TotalCuts > unl.TotalCuts {
		t.Fatalf("filtering cannot increase cuts: %d > %d", res.TotalCuts, unl.TotalCuts)
	}
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		if len(res.Sets[n]) == 0 {
			t.Fatalf("node %d lost all cuts", n)
		}
		// Every node keeps its trivial cut as the fallback.
		found := false
		for i := range res.Sets[n] {
			if res.Sets[n][i].IsTrivial(n) {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d lost its trivial cut", n)
		}
	}
}

func TestSLAPMapEquivalence(t *testing.T) {
	s, _ := trainSmall(t)
	for _, g := range []*aig.AIG{
		circuits.ALUCompare(8),
		circuits.ArrayMultiplier(5),
		circuits.BarrelShifter(8),
	} {
		res, err := s.MapStream(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if res.PolicyName != "slap" {
			t.Fatalf("policy name = %q", res.PolicyName)
		}
		if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(11))); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestSLAPReducesCutsVsUnlimited(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainCLA16()
	slapRes, err := s.MapStream(g)
	if err != nil {
		t.Fatal(err)
	}
	unlRes, err := mapper.Map(g, mapper.Options{Library: s.Library, Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if slapRes.CutsConsidered >= unlRes.CutsConsidered {
		t.Fatalf("SLAP cuts %d should be below unlimited %d",
			slapRes.CutsConsidered, unlRes.CutsConsidered)
	}
}

func TestPermutationImportance(t *testing.T) {
	s, rep := trainSmall(t)
	imps := PermutationImportance(s.Model, rep.ValX, rep.ValY, 3, 13)
	if len(imps) != 29 {
		t.Fatalf("got %d importances, want 29", len(imps))
	}
	for i, imp := range imps {
		if imp.Name == "" {
			t.Fatalf("importance %d unnamed", i)
		}
		if math.IsNaN(imp.MultiClassDrop) || math.IsNaN(imp.BinaryDrop) {
			t.Fatalf("NaN importance for %s", imp.Name)
		}
		if i > 0 && imps[i-1].MultiClassDrop < imp.MultiClassDrop {
			t.Fatalf("importances not sorted")
		}
	}
	// Permuting features must matter for at least one feature.
	if imps[0].MultiClassDrop <= 0 {
		t.Fatalf("no feature has positive importance: top=%+v", imps[0])
	}
	// The input data must not have been mutated: rerunning yields the same
	// baseline ordering.
	again := PermutationImportance(s.Model, rep.ValX, rep.ValY, 3, 13)
	for i := range imps {
		if imps[i] != again[i] {
			t.Fatalf("importance run not deterministic or inputs mutated")
		}
	}
}

func TestMaxCutsPerNodeCapsLists(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.CarryLookaheadAdder(8)
	s.MaxCutsPerNode = 3
	res := s.FilterCuts(g)
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if !g.IsAnd(n) {
			continue
		}
		if len(res.Sets[n]) > 4 { // cap + trivial cut
			t.Fatalf("node %d keeps %d cuts with cap 3", n, len(res.Sets[n]))
		}
	}
	// The capped flow still maps correctly.
	out, err := s.MapStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(19))); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedClassVariant(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainRC16()
	s.UseExpectedClass = true
	res, err := s.MapStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(23))); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdsRespected(t *testing.T) {
	s, _ := trainSmall(t)
	// With GoodMax=-1 and AvgMax=-1 every node keeps only its trivial cut;
	// the mapper must still produce a correct netlist via fanin fallbacks.
	s2 := &SLAP{Model: s.Model, Library: s.Library, GoodMax: -1, AvgMax: -1}
	g := circuits.TrainRC16()
	res, err := s2.MapStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.EquivalentTo(g, 4, rand.New(rand.NewSource(17))); err != nil {
		t.Fatal(err)
	}
}

func TestSLAPMapLUT(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.ALUCompare(10)
	res, err := s.MapLUTStream(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "slap" || res.NumLUTs() == 0 {
		t.Fatalf("LUT flow malformed: %s %d", res.PolicyName, res.NumLUTs())
	}
	if err := res.EquivalentTo(g, 4, rand.New(rand.NewSource(29))); err != nil {
		t.Fatal(err)
	}
	// The ML filter must shrink the cut footprint vs exhaustive LUT mapping.
	unl, err := lutmap.Map(g, lutmap.Options{Policy: cuts.UnlimitedPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutsConsidered >= unl.CutsConsidered {
		t.Fatalf("SLAP LUT cuts %d >= unlimited %d", res.CutsConsidered, unl.CutsConsidered)
	}
}

// predictBatcher is the per-sample oracle backend: every input goes
// through nn.Model.Predict on its own.
type predictBatcher struct{ m *nn.Model }

func (p predictBatcher) PredictBatch(_ context.Context, xs [][]float64) ([][]float64, error) {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = p.m.Predict(x)
	}
	return out, nil
}

// TestBatchedFilterMatchesPerSample pins the batching guarantee: the
// default backend (an engine core builds per call), a shared Engine and the
// cross-goroutine Coalescer change throughput only — the surviving cut sets
// and the mapped QoR are identical to per-sample nn.Model.Predict, because
// the GEMM kernels keep the per-sample accumulation order.
func TestBatchedFilterMatchesPerSample(t *testing.T) {
	s, _ := trainSmall(t)
	g := circuits.TrainRC16()

	s.Batch = predictBatcher{s.Model}
	perCuts := s.FilterCuts(g)
	perRes, err := s.MapStream(g)
	if err != nil {
		t.Fatal(err)
	}

	eng := infer.NewEngine(s.Model, infer.Options{})
	co := infer.NewCoalescer(eng, infer.CoalescerOptions{MaxBatch: 32, MaxWait: 200 * time.Microsecond})
	defer co.Close()
	for _, tc := range []struct {
		name  string
		batch Batcher
	}{
		{"default", nil},
		{"engine", eng},
		{"coalescer", co},
	} {
		s.Batch = tc.batch
		got := s.FilterCuts(g)
		if !reflect.DeepEqual(got.Sets, perCuts.Sets) {
			t.Fatalf("%s: batched filtering chose different cut sets", tc.name)
		}
		res, err := s.MapStream(g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Area != perRes.Area || res.Delay != perRes.Delay {
			t.Fatalf("%s: QoR drifted: area %v vs %v, delay %v vs %v",
				tc.name, res.Area, perRes.Area, res.Delay, perRes.Delay)
		}
	}

	// The expected-class scoring variant routes through the same batched
	// probabilities and must agree with its per-sample counterpart too.
	s.UseExpectedClass = true
	s.Batch = predictBatcher{s.Model}
	expPer := s.FilterCuts(g)
	s.Batch = nil
	expBat := s.FilterCuts(g)
	if !reflect.DeepEqual(expPer.Sets, expBat.Sets) {
		t.Fatalf("UseExpectedClass: batched filtering chose different cut sets")
	}
}
