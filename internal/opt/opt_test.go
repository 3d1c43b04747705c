package opt

import (
	"math/rand"
	"testing"

	"slap/internal/aig"
	"slap/internal/circuits"
)

func equivalent(t *testing.T, a, b *aig.AIG, seed int64) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface changed: %s vs %s", a.Stats(), b.Stats())
	}
	rng := rand.New(rand.NewSource(seed))
	ins := make([]uint64, a.NumPIs())
	for round := 0; round < 8; round++ {
		for i := range ins {
			ins[i] = rng.Uint64()
		}
		oa := a.Simulate(ins)
		ob := b.Simulate(ins)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("PO %d differs after optimisation", i)
			}
		}
	}
}

func TestSweepRemovesDanglingLogic(t *testing.T) {
	g := aig.New("dangling")
	a := g.AddPI("a")
	b := g.AddPI("b")
	used := g.And(a, b)
	// Dangling cone.
	d1 := g.And(a, b.Not())
	g.And(d1, used)
	g.AddPO("f", used)

	s := Sweep(g)
	if s.NumAnds() != 1 {
		t.Fatalf("sweep kept %d ANDs, want 1", s.NumAnds())
	}
	equivalent(t, g, s, 1)
}

func TestSweepKeepsUnusedPIs(t *testing.T) {
	g := aig.New("pis")
	a := g.AddPI("a")
	g.AddPI("unused")
	g.AddPO("f", a)
	s := Sweep(g)
	if s.NumPIs() != 2 {
		t.Fatalf("sweep dropped a PI")
	}
	equivalent(t, g, s, 2)
}

func TestBalanceReducesChainDepth(t *testing.T) {
	// A linear AND chain of 16 inputs has depth 15; balanced it is 4.
	g := aig.New("chain")
	acc := g.AddPI("")
	for i := 1; i < 16; i++ {
		acc = g.And(acc, g.AddPI(""))
	}
	g.AddPO("f", acc)
	if g.MaxLevel() != 15 {
		t.Fatalf("setup: depth = %d", g.MaxLevel())
	}
	b := Balance(g)
	if b.MaxLevel() != 4 {
		t.Fatalf("balanced depth = %d, want 4", b.MaxLevel())
	}
	equivalent(t, g, b, 3)
}

func TestBalancePreservesFunctionality(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomAIG(seed, 8, 120)
		b := Balance(g)
		equivalent(t, g, b, seed+100)
		s := Optimize(g)
		equivalent(t, g, s, seed+200)
	}
}

func TestBalanceOnRealCircuits(t *testing.T) {
	for _, g := range []*aig.AIG{
		circuits.TrainRC16(),
		circuits.CarryLookaheadAdder(16),
		circuits.ArrayMultiplier(6),
		circuits.ALUCompare(12),
		circuits.BarrelShifter(16),
	} {
		b := Optimize(g)
		equivalent(t, g, b, 7)
		if b.MaxLevel() > g.MaxLevel() {
			t.Errorf("%s: balancing increased depth %d -> %d", g.Name, g.MaxLevel(), b.MaxLevel())
		}
	}
}

func TestBalanceHandlesComplementedPOs(t *testing.T) {
	g := aig.New("cpo")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(g.And(a, b), c)
	g.AddPO("f", x.Not())
	g.AddPO("g", x)
	g.AddPO("const", aig.ConstTrue)
	out := Balance(g)
	equivalent(t, g, out, 11)
}

func TestOptimizeIdempotentDepth(t *testing.T) {
	g := circuits.CarryLookaheadAdder(16)
	once := Optimize(g)
	twice := Optimize(once)
	if twice.MaxLevel() > once.MaxLevel() {
		t.Fatalf("second optimisation increased depth")
	}
	equivalent(t, once, twice, 13)
}

func randomAIG(seed int64, nPIs, nAnds int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New("rand")
	lits := make([]aig.Lit, 0, nPIs+nAnds)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, g.AddPI(""))
	}
	for i := 0; i < nAnds; i++ {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
		lits = append(lits, g.And(a, b))
	}
	for i := 0; i < 3; i++ {
		g.AddPO("", lits[len(lits)-1-i].NotIf(rng.Intn(2) == 1))
	}
	return g
}

type treeBuilder = func(*aig.AIG, []aig.Lit, func(aig.Lit) int32) aig.Lit

// TestBalanceIncrementalLevelsMatchGraph pins that balanceWith's locally
// extended level slice is the whole-graph level annotation it replaces:
// Balance and BalanceSeeded must build exactly the graph an oracle builds
// when every level query recomputes out.Level, and every level the builder
// is handed must equal out.Level at the moment it is asked.
func TestBalanceIncrementalLevelsMatchGraph(t *testing.T) {
	viaGraph := func(out *aig.AIG, ls []aig.Lit, _ func(aig.Lit) int32) aig.Lit {
		return buildBalanced(out, ls, func(l aig.Lit) int32 { return out.Level(l.Node()) })
	}
	checked := func(build treeBuilder) treeBuilder {
		return func(out *aig.AIG, ls []aig.Lit, levelOf func(aig.Lit) int32) aig.Lit {
			for _, l := range ls {
				if got, want := levelOf(l), out.Level(l.Node()); got != want {
					t.Fatalf("%s: level of node %d = %d, graph says %d", out.Name, l.Node(), got, want)
				}
			}
			return build(out, ls, levelOf)
		}
	}
	// shuffled replays BalanceSeeded's tie-break in front of build.
	shuffled := func(seed int64, build treeBuilder) treeBuilder {
		rng := rand.New(rand.NewSource(seed))
		return func(out *aig.AIG, ls []aig.Lit, levelOf func(aig.Lit) int32) aig.Lit {
			if len(ls) > 1 {
				ls = append([]aig.Lit(nil), ls...)
				rng.Shuffle(len(ls), func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
			}
			return build(out, ls, levelOf)
		}
	}
	for _, g := range []*aig.AIG{
		circuits.RippleCarryAdder(16),
		circuits.ArrayMultiplier(6),
		circuits.BoothMultiplier(8),
		circuits.MaxTree(4, 8),
		circuits.ALUCompare(12),
	} {
		b := Balance(g)
		sameGraph(t, g.Name+"/balance", b, balanceWith(g, viaGraph))
		sameGraph(t, g.Name+"/balance", b, balanceWith(g, checked(buildBalanced)))
		for _, seed := range []int64{1, 1 + 0x9e3779b9} {
			s := BalanceSeeded(g, seed)
			sameGraph(t, g.Name+"/seeded", s, balanceWith(g, shuffled(seed, viaGraph)))
			sameGraph(t, g.Name+"/seeded", s, balanceWith(g, shuffled(seed, checked(buildBalanced))))
		}
	}
}

// sameGraph fails unless a and b are structurally identical: same nodes
// with the same fanins in the same order, same PIs and POs.
func sameGraph(t *testing.T, what string, a, b *aig.AIG) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("%s: %s vs %s", what, a.Stats(), b.Stats())
	}
	for n := uint32(1); n < uint32(a.NumNodes()); n++ {
		if a.IsAnd(n) != b.IsAnd(n) {
			t.Fatalf("%s: node %d kind differs", what, n)
		}
		if a.IsAnd(n) {
			a0, a1 := a.Fanins(n)
			b0, b1 := b.Fanins(n)
			if a0 != b0 || a1 != b1 {
				t.Fatalf("%s: node %d fanins (%d, %d) vs (%d, %d)", what, n, a0, a1, b0, b1)
			}
		}
	}
	for i, po := range a.POs() {
		if po != b.POs()[i] {
			t.Fatalf("%s: PO %d %+v vs %+v", what, i, po, b.POs()[i])
		}
	}
}
