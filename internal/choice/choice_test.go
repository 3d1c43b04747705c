package choice

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/lutmap"
)

// TestChoiceClassSoundness fuzzes the class construction: views built from
// random opt-rewrite variants of random AIGs must (a) satisfy the strict
// id/level eligibility rule every enumeration driver relies on and (b) hold
// only functionally equivalent members — checked by direct simulation of
// the combined graph, independently of the signature machinery that built
// the classes.
func TestChoiceClassSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	totalClasses := 0
	for trial := 0; trial < 12; trial++ {
		g := circuits.RandomAIG(int64(trial+1), 4+trial%5, 80+15*trial)
		v := Build(g, Options{})
		totalClasses += v.Classes()

		for rep := 0; rep < 8; rep++ {
			words := make([]uint64, v.G.NumPIs())
			for i := range words {
				words[i] = rng.Uint64()
			}
			vals := v.G.SimulateNodes(words)
			for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
				for _, m := range v.MembersOf(n) {
					if m.Node >= n {
						t.Fatalf("trial %d: member %d of node %d violates id order", trial, m.Node, n)
					}
					if v.G.Level(m.Node) >= v.G.Level(n) {
						t.Fatalf("trial %d: member %d (level %d) of node %d (level %d) violates level order",
							trial, m.Node, v.G.Level(m.Node), n, v.G.Level(n))
					}
					want := vals[m.Node]
					if m.Compl {
						want = ^want
					}
					if vals[n] != want {
						t.Fatalf("trial %d: member %d (compl=%v) disagrees with node %d", trial, m.Node, m.Compl, n)
					}
				}
			}
		}

		// The view must keep the base interface: mapped netlists verify
		// against the original graph, not the combined one.
		if v.G.NumPIs() != g.NumPIs() || v.G.NumPOs() != g.NumPOs() {
			t.Fatalf("trial %d: view changed the PI/PO interface", trial)
		}
	}
	if totalClasses == 0 {
		t.Fatal("no equivalence classes found across any trial; the fuzz exercised nothing")
	}
}

// TestChoiceMultiRoundNetlistVerifies maps choice views with the
// multi-round engine and verifies the mapped network against the original
// graph — member cuts must never leak a functionally wrong cover.
func TestChoiceMultiRoundNetlistVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		g := circuits.RandomAIG(int64(100+trial), 5+trial%4, 150+20*trial)
		v := Build(g, Options{})
		res, err := lutmap.Map(v.G, lutmap.Options{
			Policy:  cuts.DefaultPolicy{},
			Workers: 1,
			Rounds:  3,
			Choices: v,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.EquivalentTo(g, 4, rng); err != nil {
			t.Fatalf("trial %d: mapped netlist not equivalent to base: %v", trial, err)
		}
	}
}

// TestChoiceViewDeterminism pins that building the same view twice yields
// identical classes — the fleet's byte-identity guarantee starts here.
func TestChoiceViewDeterminism(t *testing.T) {
	g := circuits.CarryLookaheadAdder(8)
	a := Build(g, Options{})
	b := Build(g, Options{})
	if a.Classes() != b.Classes() || a.MemberRefs() != b.MemberRefs() {
		t.Fatalf("view construction not deterministic: %d/%d classes, %d/%d member refs",
			a.Classes(), b.Classes(), a.MemberRefs(), b.MemberRefs())
	}
	if a.G.NumNodes() != b.G.NumNodes() {
		t.Fatalf("combined graphs differ: %d vs %d nodes", a.G.NumNodes(), b.G.NumNodes())
	}
	for n := uint32(1); n < uint32(a.G.NumNodes()); n++ {
		ma, mb := a.MembersOf(n), b.MembersOf(n)
		if len(ma) != len(mb) {
			t.Fatalf("node %d: member count differs", n)
		}
		for i := range ma {
			if ma[i] != mb[i] {
				t.Fatalf("node %d: member %d differs: %+v vs %+v", n, i, ma[i], mb[i])
			}
		}
	}
}

// TestChoiceProofDropsRareDifferences is the regression for the bug the SAT
// prover exists to prevent: on a deep Booth multiplier (24 PIs, so
// signatures are random, not exhaustive) there are node pairs that agree on
// every uniform-random pattern yet differ on rare inputs — unproven, they
// produced functionally wrong netlists. The proven view must survive biased
// simulation (heavy-ones and heavy-zeros patterns reach the rare corners),
// and the prover must actually have dropped candidates on this circuit.
func TestChoiceProofDropsRareDifferences(t *testing.T) {
	g := circuits.BoothMultiplier(12)
	v := Build(g, Options{})
	if v.Exhaustive() {
		t.Fatal("booth-12 should be past the exhaustive-simulation bound")
	}
	if v.DroppedMembers() == 0 {
		t.Fatal("expected the prover to drop unproven candidates on booth-12; the regression exercised nothing")
	}

	rng := rand.New(rand.NewSource(999))
	pis := make([]uint64, v.G.NumPIs())
	for pass := 0; pass < 120; pass++ {
		for i := range pis {
			switch pass % 3 {
			case 0:
				pis[i] = rng.Uint64()
			case 1: // heavy ones: long carry propagation
				pis[i] = rng.Uint64() | rng.Uint64() | rng.Uint64()
			case 2: // heavy zeros: near-constant guards
				pis[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		vals := v.G.SimulateNodes(pis)
		for n := uint32(1); n < uint32(v.G.NumNodes()); n++ {
			for _, m := range v.MembersOf(n) {
				want := vals[m.Node]
				if m.Compl {
					want = ^want
				}
				if vals[n] != want {
					t.Fatalf("pass %d: proven member %d (compl=%v) disagrees with node %d", pass, m.Node, m.Compl, n)
				}
			}
		}
	}
}

// TestSatSolverBasics sanity-checks the mini CDCL solver on hand-built
// instances independent of any AIG.
func TestSatSolverBasics(t *testing.T) {
	// (a | b) & (!a | b) & (a | !b) & (!a | !b) — classic UNSAT square.
	var s satSolver
	s.reset(2)
	a, b := mkLit(0, false), mkLit(1, false)
	ok := s.addClause(a, b) && s.addClause(a.not(), b) && s.addClause(a, b.not())
	if !ok {
		t.Fatal("setup clauses inconsistent too early")
	}
	if s.addClause(a.not(), b.not()) && s.solve(nil, 1000) != satFalse {
		t.Fatal("unsat square not refuted")
	}

	// Satisfiable chain with assumptions driving it both ways, on the same
	// solver after a reset: nothing of the UNSAT square may survive it.
	s.reset(3)
	x, y, z := mkLit(0, false), mkLit(1, false), mkLit(2, false)
	if !s.addClause(x.not(), y) || !s.addClause(y.not(), z) {
		t.Fatal("chain setup failed")
	}
	if got := s.solve([]slit{x, z.not()}, 1000); got != satFalse {
		t.Fatalf("x & !z should be unsat under x->y->z, got %v", got)
	}
	if got := s.solve([]slit{x}, 1000); got != satTrue {
		t.Fatalf("x alone should be satisfiable, got %v", got)
	}
	if got := s.solve([]slit{x.not(), z.not()}, 1000); got != satTrue {
		t.Fatalf("!x & !z should be satisfiable, got %v", got)
	}
}

// TestProverAgreesWithExhaustiveSim cross-checks the SAT prover against
// ground truth on small graphs: for every candidate pair proposed by
// exhaustive signatures the prover must answer "equivalent", and for
// perturbed (wrong-polarity) pairs it must answer "not equivalent".
func TestProverAgreesWithExhaustiveSim(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := circuits.RandomAIG(int64(200+trial), 4+trial%3, 60+10*trial)
		v := Build(g, Options{})
		if !v.Exhaustive() {
			t.Fatalf("trial %d: expected exhaustive simulation on %d PIs", trial, g.NumPIs())
		}
		pr := newConeProver(v.G)
		checked := 0
		for n := uint32(1); n < uint32(v.G.NumNodes()) && checked < 40; n++ {
			for _, m := range v.MembersOf(n) {
				pr.load([]uint32{n, m.Node})
				if ok, _ := pr.equivalent(n, m.Node, m.Compl, 100000); !ok {
					t.Fatalf("trial %d: prover rejects exhaustively-proven pair (%d, %d, compl=%v)",
						trial, n, m.Node, m.Compl)
				}
				if ok, _ := pr.equivalent(n, m.Node, !m.Compl, 100000); ok {
					t.Fatalf("trial %d: prover accepts wrong-polarity pair (%d, %d)", trial, n, m.Node)
				}
				checked++
			}
		}
	}
}

// TestProverReuseIsPure pins the property that lets every build worker keep
// one coneProver for the whole build: a class's proof outcome must not
// depend on what the prover proved before. Every class of booth-8 is proven
// once on a fresh prover per class, in wavefront order, and once on a
// single reused prover in a shuffled order, each class seeing the facts of
// the groups before its own; the results must be equal. The default budget
// exercises refuted candidates, a budget of 3 conflicts exercises budget
// drops — the verdicts most sensitive to leftover solver state.
func TestProverReuseIsPure(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	for _, budget := range []int64{0, 3} {
		o := Options{ProofConflicts: budget}
		o.fill()
		v, prop := proposeOnly(t, g, o)
		classes := prop.classes
		groups := levelGroups(v.G, classes, false)
		groupOf := make([]int, len(classes))
		for k, group := range groups {
			for _, i := range group {
				groupOf[i] = k
			}
		}

		fresh := make([]classResult, len(classes))
		snap := make([][]uint32, len(classes))
		var differ, dropped int
		for _, group := range groups {
			for _, i := range group {
				fresh[i] = proveClass(v.G, classes[i], prop.pol, newConeProver(v.G), snap, o)
				differ += fresh[i].droppedDiffer
				dropped += fresh[i].droppedBudget
			}
			for _, i := range group {
				snap[i] = fresh[i].certified
			}
		}
		t.Logf("budget %d: %d classes, %d refuted, %d budget drops", budget, len(classes), differ, dropped)
		if budget == 0 && differ == 0 {
			t.Fatal("default budget refuted no candidate; the test exercised no counterexample")
		}
		if budget == 3 && dropped == 0 {
			t.Fatal("3-conflict budget dropped no candidate; the test exercised no budget exhaustion")
		}

		pr := newConeProver(v.G)
		order := rand.New(rand.NewSource(budget + 1)).Perm(len(classes))
		for _, i := range order {
			for j := range snap {
				snap[j] = nil
				if groupOf[j] < groupOf[i] {
					snap[j] = fresh[j].certified
				}
			}
			if got := proveClass(v.G, classes[i], prop.pol, pr, snap, o); !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("budget %d: class %d on a reused prover = %+v, fresh prover = %+v", budget, i, got, fresh[i])
			}
		}
	}
}

// TestProverSteadyStateAllocs guards the reason one prover serves a whole
// build: once it has seen a class, loading and proving that class again
// reuses every solver structure and allocates nothing.
func TestProverSteadyStateAllocs(t *testing.T) {
	g := circuits.BoothMultiplier(8)
	var o Options
	o.fill()
	v, prop := proposeOnly(t, g, o)
	// The class with the largest cone: the design's largest SAT instance.
	pr := newConeProver(v.G)
	var class []uint32
	best := 0
	for _, c := range prop.classes {
		pr.load(c)
		if len(pr.cone) > best {
			class, best = c, len(pr.cone)
		}
	}
	n, m := class[len(class)-1], class[0]
	compl := prop.pol[n] != prop.pol[m]
	run := func() {
		pr.load(class)
		pr.equivalent(n, m, compl, o.ProofConflicts)
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("reloading and proving a warmed class allocates %.1f times per run, want 0", allocs)
	}
}

// proposeOnly runs Build's graft and simulate phases on g, which must be
// past the exhaustive-simulation bound so the prover has work.
func proposeOnly(t *testing.T, g *aig.AIG, o Options) (*View, *proposal) {
	t.Helper()
	v := combine(g, o)
	prop, err := v.propose(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if v.exhaustive {
		t.Fatalf("%s unexpectedly simulated exhaustively", g.Name)
	}
	return v, prop
}
