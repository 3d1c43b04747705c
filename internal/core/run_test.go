package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/lutmap"
	"slap/internal/mapcache"
	"slap/internal/mapper"
)

// The two-phase oracle: enumerate (or FilterCuts) every cut first, then
// map the complete cut sets with mapper.Map / lutmap.Map. Run's fused
// streaming pipeline must reproduce it byte for byte.

// oracleView is the graph and choice source the oracle maps over, checked
// out of views when set (a view is the same for any caller).
func oracleView(t *testing.T, g *aig.AIG, choices bool, o choice.Options, views *choice.Cache) (*aig.AIG, cuts.ChoiceSource) {
	t.Helper()
	if !choices {
		return g, nil
	}
	if views == nil {
		views = choice.NewCache(0)
	}
	v, err := views.Checkout(context.Background(), g, o)
	if err != nil {
		t.Fatal(err)
	}
	return v.G, v
}

// oracleFilter is s's two-phase keep decision over its configured view.
func oracleFilter(t *testing.T, s *SLAP, g *aig.AIG) (*aig.AIG, *cuts.Result, [][]cuts.Cut) {
	t.Helper()
	mg, ch := oracleView(t, g, s.Choices, s.ChoiceOpts, s.Views)
	sets, extras, err := s.filterCutsChoices(context.Background(), mg, ch)
	if err != nil {
		t.Fatal(err)
	}
	return mg, sets, extras
}

// oracleSLAP maps g under s's configuration the two-phase way.
func oracleSLAP(t *testing.T, s *SLAP, g *aig.AIG) *mapper.Result {
	t.Helper()
	mg, sets, extras := oracleFilter(t, s, g)
	res, err := mapper.Map(mg, mapper.Options{
		Library: s.Library, CutSets: sets,
		Rounds: s.Rounds, DelayFactor: s.DelayFactor, ExtraCuts: extras,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.PolicyName = "slap"
	return res
}

// oracleSLAPLUT is oracleSLAP against the K-LUT mapper.
func oracleSLAPLUT(t *testing.T, s *SLAP, g *aig.AIG) *lutmap.Result {
	t.Helper()
	mg, sets, extras := oracleFilter(t, s, g)
	res, err := lutmap.Map(mg, lutmap.Options{
		CutSets: sets, Rounds: s.Rounds, DelayFactor: s.DelayFactor, ExtraCuts: extras,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.PolicyName = "slap"
	return res
}

// oracleCapture is the two-phase capture of a single-round SLAP map: the
// filtered lists go into a snapshot before mapper.Map consumes them.
func oracleCapture(t *testing.T, s *SLAP, g *aig.AIG) (*mapper.Result, *SlapSnapshot) {
	t.Helper()
	filtered := s.FilterCuts(g)
	snap := s.NewSnapshot(g)
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			snap.capture(n, filtered.Sets[n])
		}
	}
	res, err := mapper.Map(g, mapper.Options{Library: s.Library, CutSets: filtered})
	if err != nil {
		t.Fatal(err)
	}
	res.PolicyName = "slap"
	return res, snap
}

// oracle maps g under req the two-phase way, for every policy and target.
func oracle(t *testing.T, g *aig.AIG, req Request) (*mapper.Result, *lutmap.Result) {
	t.Helper()
	j, err := newJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if j.slap != nil {
		if j.lut {
			return nil, oracleSLAPLUT(t, j.slap, g)
		}
		return oracleSLAP(t, j.slap, g), nil
	}
	mg, ch := oracleView(t, g, req.Choices, req.ChoiceOpts, req.Views)
	if j.lut {
		res, err := lutmap.Map(mg, lutmap.Options{
			Policy: j.cutPolicy, Workers: req.Workers,
			Rounds: req.Rounds, DelayFactor: req.DelayFactor, Choices: ch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return nil, res
	}
	res, err := mapper.Map(mg, j.mapperOptions(ch))
	if err != nil {
		t.Fatal(err)
	}
	return res, nil
}

func verilogOf(t *testing.T, r *mapper.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Netlist.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameOutcome compares a Run outcome with the oracle's result.
func requireSameOutcome(t *testing.T, name string, asic *mapper.Result, lut *lutmap.Result, out *Outcome) {
	t.Helper()
	if lut != nil {
		if out.LUT == nil || out.LUT.NumLUTs() != lut.NumLUTs() || out.LUT.Depth != lut.Depth ||
			out.LUT.CutsConsidered != lut.CutsConsidered || out.LUT.PolicyName != lut.PolicyName {
			t.Fatalf("%s: LUT result differs from the oracle", name)
		}
		if err := equalLUTs(lut, out.LUT); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return
	}
	if out.ASIC == nil || !bytes.Equal(verilogOf(t, asic), verilogOf(t, out.ASIC)) {
		t.Fatalf("%s: Verilog differs from the oracle", name)
	}
	if out.ASIC.Area != asic.Area || out.ASIC.Delay != asic.Delay ||
		out.ASIC.CutsConsidered != asic.CutsConsidered || out.ASIC.MatchAttempts != asic.MatchAttempts ||
		out.ASIC.PolicyName != asic.PolicyName {
		t.Fatalf("%s: QoR or counters differ from the oracle", name)
	}
}

// TestRunMatrix maps a small adder and a multiplier through Run across
// target × policy × rounds × choices × workers and, for ASIC, cache {none,
// cold, exact hit, ~5% ECO edit}, and requires every cell to be
// byte-identical to the two-phase oracle. Choice views come from one shared
// view cache, which only saves rebuilding identical views.
func TestRunMatrix(t *testing.T) {
	ctx := context.Background()
	sl := untrained(3)
	views := choice.NewCache(0)
	for _, g := range []*aig.AIG{circuits.RippleCarryAdder(8), circuits.ArrayMultiplier(4)} {
		edited := circuits.PerturbSpan(g, 7, 0.9, 1.0, 0.3)
		for _, target := range []string{"asic", "lut"} {
			for _, policy := range []string{"default", "unlimited", "shuffle", "slap"} {
				for _, rounds := range []int{1, 4} {
					for _, choices := range []bool{false, true} {
						base := Request{
							Target: target, Policy: policy, Seed: 5, Library: sl.Library, SLAP: sl,
							Rounds: rounds, Choices: choices, Views: views, Verify: true,
						}
						want, wantLUT := oracle(t, g, base)
						var editWant *mapper.Result
						if target == "asic" {
							editWant, _ = oracle(t, edited, base)
						}
						for _, workers := range []int{1, 4} {
							req := base
							req.Workers = workers
							name := fmt.Sprintf("%s/%s/%s/rounds=%d/choices=%v/workers=%d",
								g.Name, target, policy, rounds, choices, workers)
							out, err := Run(ctx, g, req)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !out.Verified {
								t.Fatalf("%s: verify=true outcome not verified", name)
							}
							requireSameOutcome(t, name, want, wantLUT, out)
							if target == "lut" {
								continue
							}

							req.Cache, req.ECO = mapcache.New(0), true
							cold, err := Run(ctx, g, req)
							if err != nil {
								t.Fatalf("%s/cold: %v", name, err)
							}
							if cold.Hit || cold.ECO != nil {
								t.Fatalf("%s/cold: served %+v", name, cold)
							}
							requireSameOutcome(t, name+"/cold", want, nil, cold)
							hit, err := Run(ctx, g, req)
							if err != nil {
								t.Fatalf("%s/hit: %v", name, err)
							}
							if !hit.Hit || hit.ASIC != cold.ASIC || !hit.Verified {
								t.Fatalf("%s/hit: not an exact verified hit: %+v", name, hit)
							}
							eco, err := Run(ctx, edited, req)
							if err != nil {
								t.Fatalf("%s/eco: %v", name, err)
							}
							if eligible := rounds == 1 && !choices && policy != "shuffle"; eligible != (eco.ECO != nil) {
								t.Fatalf("%s/eco: ECO-eligible %v but served by delta %v", name, eligible, eco.ECO != nil)
							}
							requireSameOutcome(t, name+"/eco", editWant, nil, eco)
						}
					}
				}
			}
		}
	}
}

// TestRunRejectsBadRequests pins Run's validation.
func TestRunRejectsBadRequests(t *testing.T) {
	g := circuits.TrainRC16()
	lib := untrained(1).Library
	for name, req := range map[string]Request{
		"unknown policy":         {Policy: "bogus", Library: lib},
		"unknown target":         {Target: "fpga", Library: lib},
		"slap without a model":   {Policy: "slap", Library: lib},
		"asic without a library": {},
	} {
		if _, err := Run(context.Background(), g, req); err == nil {
			t.Errorf("%s: Run succeeded", name)
		}
	}
}

// TestRunVerifyFailure checks that a cached result which fails the
// equivalence check fails the request instead of answering verified.
func TestRunVerifyFailure(t *testing.T) {
	g := circuits.TrainRC16()
	s := untrained(1)
	cache := mapcache.New(0)
	req := Request{Policy: "default", Library: s.Library, Cache: cache}
	out, err := Run(context.Background(), g, req)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an edited design's netlist under this key.
	other, err := Run(context.Background(), circuits.Perturb(g, 1, 0.3), Request{Library: s.Library})
	if err != nil {
		t.Fatal(err)
	}
	cache.Add(&mapcache.Entry{Key: out.Key, Sig: "planted", Result: other.ASIC})
	req.Verify = true
	if _, err := Run(context.Background(), g, req); !errors.Is(err, ErrNotEquivalent) {
		t.Fatalf("verify of a planted wrong result: err = %v, want ErrNotEquivalent", err)
	}
}

// TestRunReportsBuiltView checks that a choice view built outside any view
// cache is reported exactly once, and that cached checkouts report none.
func TestRunReportsBuiltView(t *testing.T) {
	g := circuits.RippleCarryAdder(8)
	s := untrained(1)
	req := Request{Policy: "slap", SLAP: s, Choices: true}
	out, err := Run(context.Background(), g, req)
	if err != nil {
		t.Fatal(err)
	}
	if out.BuiltView == nil {
		t.Fatal("uncached choice build not reported")
	}
	req.Views = choice.NewCache(0)
	if out, err = Run(context.Background(), g, req); err != nil || out.BuiltView != nil {
		t.Fatalf("cached checkout reported a built view (err %v)", err)
	}
	req.Views, req.Choices = nil, false
	if out, err = Run(context.Background(), g, req); err != nil || out.BuiltView != nil {
		t.Fatalf("choice-free map reported a built view (err %v)", err)
	}
}
