package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"slap/internal/circuits"
	"slap/internal/embed"
	"slap/internal/library"
	"slap/internal/nn"
)

// untrained returns a SLAP instance with deterministic random weights —
// enough for flow tests that do not care about QoR.
func untrained(seed int64) *SLAP {
	m := nn.NewModel(embed.Rows, embed.Cols, 4, 10, rand.New(rand.NewSource(seed)))
	return New(m, library.ASAP7ish())
}

// TestMapContextCancellation checks that a cancelled context stops Run for
// both targets, and the two-phase front ends too.
func TestMapContextCancellation(t *testing.T) {
	s := untrained(5)
	g := circuits.TrainRC16()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, g, s.request("asic")); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(cancelled, asic) err = %v, want context.Canceled", err)
	}
	if _, err := Run(ctx, g, s.request("lut")); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(cancelled, lut) err = %v, want context.Canceled", err)
	}
	if _, err := s.FilterCutsContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("FilterCutsContext(cancelled) err = %v, want context.Canceled", err)
	}
	if _, err := s.ClassifyContext(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("ClassifyContext(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestMapContextBackgroundMatchesMap checks that Run under a background
// context gives the two-phase oracle's QoR.
func TestMapContextBackgroundMatchesMap(t *testing.T) {
	s := untrained(5)
	g := circuits.TrainRC16()
	plain := oracleSLAP(t, s, g)
	out, err := Run(context.Background(), g, s.request("asic"))
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx := out.ASIC; plain.Area != viaCtx.Area || plain.Delay != viaCtx.Delay {
		t.Errorf("oracle area=%v delay=%v, Run area=%v delay=%v",
			plain.Area, plain.Delay, viaCtx.Area, viaCtx.Delay)
	}
}

func TestClassifyContextStructure(t *testing.T) {
	s := untrained(9)
	g := circuits.TrainRC16()
	cls, err := s.ClassifyContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.Nodes) != g.NumAnds() {
		t.Errorf("classified %d nodes, graph has %d AND nodes", len(cls.Nodes), g.NumAnds())
	}
	sum := 0
	for _, c := range cls.Histogram {
		sum += c
	}
	if sum != cls.TotalCuts || sum == 0 {
		t.Errorf("histogram sums to %d, TotalCuts = %d", sum, cls.TotalCuts)
	}
	// Sequential and parallel classification agree (classes are per-cut
	// deterministic; only the work distribution changes).
	s.Workers = 1
	seq, err := s.ClassifyContext(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if seq.TotalCuts != cls.TotalCuts {
		t.Errorf("sequential classify found %d cuts, parallel %d", seq.TotalCuts, cls.TotalCuts)
	}
	for i := range seq.Nodes {
		if seq.Nodes[i].Node != cls.Nodes[i].Node || len(seq.Nodes[i].Classes) != len(cls.Nodes[i].Classes) {
			t.Fatalf("node %d: sequential/parallel classification diverged", seq.Nodes[i].Node)
		}
		for j := range seq.Nodes[i].Classes {
			if seq.Nodes[i].Classes[j] != cls.Nodes[i].Classes[j] {
				t.Fatalf("node %d cut %d: class %d (seq) != %d (par)",
					seq.Nodes[i].Node, j, seq.Nodes[i].Classes[j], cls.Nodes[i].Classes[j])
			}
		}
	}
}
