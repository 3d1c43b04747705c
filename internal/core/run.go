package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/cuts"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapcache"
	"slap/internal/mapper"
)

// Request is one mapping job for Run: the target, the cut policy and every
// knob the CLI flags, the /v1/map fields and the server configuration can
// set, plus the caches the caller owns. SLAP changes only which cuts reach
// the mapper (paper §IV-C), so the policy is just one more field.
type Request struct {
	// Target selects the backend: "asic" (standard cells, also "") or
	// "lut".
	Target string
	// Policy is the cut policy: "default" (also ""), "unlimited",
	// "shuffle" or "slap".
	Policy string
	// CutPolicy, when set, replaces a non-slap Policy with an explicit cut
	// policy (the single-attribute sorts of the §III ablation). Such
	// requests bypass Cache, whose signature cannot name an arbitrary
	// policy.
	CutPolicy cuts.Policy
	// Limit is the per-node cut budget of default and shuffle (0 = 250).
	Limit int
	// Seed drives shuffle.
	Seed int64
	// Library is the standard-cell library; policy slap falls back to
	// SLAP.Library when it is nil.
	Library *library.Library
	// SLAP is policy slap's classifier: model, keep thresholds, scoring
	// mode, merge cap and inference backend. Its scheduling, round and
	// choice fields are ignored; the Request's own fields below apply.
	SLAP *SLAP
	// Workers bounds enumeration and inference parallelism (0 = GOMAXPROCS).
	Workers int
	// Rounds and DelayFactor select multi-round mapping (see SLAP.Rounds).
	Rounds      int
	DelayFactor float64
	// Choices maps over a choice view of g built under ChoiceOpts, checked
	// out of Views when that cache is set.
	Choices    bool
	ChoiceOpts choice.Options
	Views      *choice.Cache
	// Pool recycles cut-arena storage across runs of the same graph shape.
	Pool *cuts.Pool
	// Cache, when set, serves asic requests content-addressed: exact
	// repeats are answered from it, concurrent identical requests share one
	// map, and every fresh result is stored (with an ECO snapshot for the
	// single-round, no-choice flows).
	Cache *mapcache.Cache
	// ECO lets a Cache miss delta-remap against the nearest cached relative
	// instead of mapping cold.
	ECO bool
	// Verify checks the result against g on 8×64 seeded random patterns; a
	// mismatch fails the request with ErrNotEquivalent.
	Verify bool
}

// Outcome is what Run produced and how it was served.
type Outcome struct {
	// ASIC is the standard-cell result (target asic); LUT the K-LUT result
	// (target lut). Results served from a cache are shared: treat them as
	// immutable.
	ASIC *mapper.Result
	LUT  *lutmap.Result
	// Key is the content address the request resolved to when Cache was
	// consulted.
	Key mapcache.Key
	// Hit reports an exact-key cache hit; Shared a singleflight follower
	// that reused a concurrent identical request's fresh result.
	Hit, Shared bool
	// ECO, when non-nil, reports that a cache miss was served by
	// delta-remapping against a cached relative, with its dirty-cone
	// statistics.
	ECO *mapper.DeltaStats
	// Verified reports that the result passed the check Verify asked for.
	Verified bool
	// BuiltView is the choice view this call built outside any view cache,
	// so callers can observe every fresh build exactly once (a Views cache
	// reports its own builds through its OnBuild hook).
	BuiltView *choice.View
}

// ErrNotEquivalent reports a mapped result that differs from its subject
// graph on the Verify patterns.
var ErrNotEquivalent = errors.New("equivalence check failed")

// Verify's patterns: 8 words of 64 random PI vectors from a fixed seed,
// the check the CLI, the server and the cache entries have always shared.
const (
	verifyWords = 8
	verifySeed  = 99
)

// Run is the mapping entry point: it resolves the request's policy and
// target, consults the result cache, maps cold through the fused streaming
// pipeline (over a choice view when asked), and verifies the result.
func Run(ctx context.Context, g *aig.AIG, req Request) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := newJob(req)
	if err != nil {
		return nil, err
	}
	var out *Outcome
	if req.Cache != nil && !j.lut && req.CutPolicy == nil {
		out, err = j.cached(ctx, g)
	} else {
		out = &Outcome{}
		_, err = j.cold(ctx, g, out, false)
	}
	if err != nil {
		return nil, err
	}
	if req.Verify && !out.Verified {
		if err := out.check(g); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotEquivalent, err)
		}
		out.Verified = true
	}
	return out, nil
}

// job is a validated Request: exactly one of slap and cutPolicy is set.
type job struct {
	req       Request
	lut       bool
	slap      *SLAP
	cutPolicy cuts.Policy
}

func newJob(req Request) (*job, error) {
	j := &job{req: req}
	switch req.Policy {
	case "", "default":
		j.cutPolicy = cuts.DefaultPolicy{Limit: req.Limit}
	case "unlimited":
		j.cutPolicy = cuts.UnlimitedPolicy{}
	case "shuffle":
		j.cutPolicy = &cuts.ShufflePolicy{Rng: rand.New(rand.NewSource(req.Seed)), Limit: req.Limit}
	case "slap":
		if req.SLAP == nil {
			return nil, errors.New("core: policy slap needs a trained SLAP classifier")
		}
		sl := *req.SLAP
		if req.Library != nil {
			sl.Library = req.Library
		}
		sl.Workers, sl.Rounds, sl.DelayFactor = req.Workers, req.Rounds, req.DelayFactor
		sl.Choices, sl.ChoiceOpts, sl.Views, sl.Pool = req.Choices, req.ChoiceOpts, req.Views, req.Pool
		j.slap = &sl
	default:
		return nil, fmt.Errorf("unknown policy %q (want default, unlimited, shuffle or slap)", req.Policy)
	}
	if req.CutPolicy != nil && j.slap == nil {
		j.cutPolicy = req.CutPolicy
	}
	switch req.Target {
	case "", "asic":
		if j.slap != nil && j.slap.Library == nil || j.slap == nil && req.Library == nil {
			return nil, errors.New("core: target asic needs a Library")
		}
	case "lut":
		j.lut = true
	default:
		return nil, fmt.Errorf("unknown target %q (want asic or lut)", req.Target)
	}
	return j, nil
}

// sig is the cache signature: every option that shapes the result.
// Scheduling knobs (workers, pool, view cache) stay out because they never
// change the output bytes.
func (j *job) sig() string {
	if j.slap != nil {
		return j.slap.ConfigSig()
	}
	r := j.req
	policy, limit, seed := r.Policy, r.Limit, int64(0)
	switch policy {
	case "":
		policy = "default"
	case "unlimited":
		limit = 0
	case "shuffle":
		seed = r.Seed
	}
	rounds := max(r.Rounds, 1)
	df := max(r.DelayFactor, 1)
	// Two configurations that build different views must never share a
	// cached result.
	cSig := "off"
	if r.Choices {
		cSig = r.ChoiceOpts.Sig()
	}
	return fmt.Sprintf("asic/policy=%s/limit=%d/seed=%d/lib=%s@%p/rounds=%d/df=%g/choices=%s",
		policy, limit, seed, r.Library.Name, r.Library, rounds, df, cSig)
}

// mapperOptions are the standard-cell options of a non-slap job.
func (j *job) mapperOptions(ch cuts.ChoiceSource) mapper.Options {
	r := j.req
	return mapper.Options{
		Library: r.Library, Policy: j.cutPolicy, Workers: r.Workers, Pool: r.Pool,
		Rounds: r.Rounds, DelayFactor: r.DelayFactor, Choices: ch,
	}
}

// cached serves an asic job through the result cache: an exact hit skips
// mapping entirely, concurrent identical submissions collapse into one
// run, and with ECO a miss first tries to delta-remap against the nearest
// cached relative. Every fresh result is cached with its verify bit and,
// for the single-round no-choice flows, the ECO snapshot that lets edit
// chains keep remapping incrementally.
func (j *job) cached(ctx context.Context, g *aig.AIG) (*Outcome, error) {
	c, sig := j.req.Cache, j.sig()
	out := &Outcome{Key: mapcache.KeyOf(g, sig)}
	// Snapshots record the keep decision's lists, not the recovery pools
	// or a choice view's combined graph; multi-round and choice entries
	// still get exact-key caching and singleflight.
	simple := j.req.Rounds <= 1 && !j.req.Choices
	e, shared, err := c.Do(out.Key, func() (*mapcache.Entry, error) {
		// The lookup happens inside the flight so a result added between a
		// miss and the flight acquisition is still found.
		if e, ok := c.Get(out.Key); ok {
			out.Hit = true
			return e, nil
		}
		e := &mapcache.Entry{Key: out.Key, Sig: sig}
		var err error
		if j.req.ECO && simple {
			out.ASIC, e.Snap, out.ECO = j.delta(ctx, g, c.Nearest(sig, g.ConeHashes()))
		}
		if out.ECO != nil {
			c.RecordECOHit()
		} else if e.Snap, err = j.cold(ctx, g, out, simple); err != nil {
			return nil, err
		}
		e.Result = out.ASIC
		e.Verified = j.req.Verify && out.check(g) == nil
		c.Add(e)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	out.Shared = shared
	out.ASIC, out.Verified = e.Result, e.Verified
	return out, nil
}

// delta delta-remaps g against a cached relative's snapshot. Any
// ineligibility (no relative, depth change, configuration drift) returns
// nil stats and the caller maps cold. A SLAP delta chains its own
// snapshot; a mapper delta is cached without one, so later edits keep
// aligning against the original baseline.
func (j *job) delta(ctx context.Context, g *aig.AIG, near *mapcache.Entry) (*mapper.Result, mapcache.Snapshot, *mapper.DeltaStats) {
	if near == nil {
		return nil, nil, nil
	}
	switch snap := near.Snap.(type) {
	case *SlapSnapshot:
		if res, next, st, err := j.slap.MapDeltaContext(ctx, g, snap); err == nil {
			return res, next, st
		}
	case *mapper.Snapshot:
		if res, st, err := mapper.MapDelta(g, j.mapperOptions(nil), snap); err == nil {
			return res, nil, st
		}
	}
	return nil, nil, nil
}

// cold maps g from scratch into out through the fused streaming pipeline.
// With capture set it also returns the ECO snapshot of the run (nil when
// the policy cannot be delta-remapped).
func (j *job) cold(ctx context.Context, g *aig.AIG, out *Outcome, capture bool) (mapcache.Snapshot, error) {
	v, err := j.view(ctx, g)
	if err != nil {
		return nil, err
	}
	if v != nil && j.req.Views == nil {
		out.BuiltView = v
	}
	mg, ch := g, cuts.ChoiceSource(nil)
	if v != nil {
		mg, ch = v.G, v
	}
	var snap mapcache.Snapshot
	s := j.slap
	switch {
	case s != nil && j.lut:
		st := lutmap.NewStream(mg, lutmap.Options{Rounds: s.Rounds, DelayFactor: s.DelayFactor})
		if err = s.feed(ctx, mg, ch, st, nil); err == nil {
			out.LUT, err = st.Finish()
		}
	case s != nil:
		var st *mapper.Stream
		if st, err = mapper.NewStream(mg, mapper.Options{Library: s.Library, Rounds: s.Rounds, DelayFactor: s.DelayFactor}); err != nil {
			return nil, err
		}
		var ss *SlapSnapshot
		if capture {
			ss = s.NewSnapshot(g)
			snap = ss
		}
		if err = s.feed(ctx, mg, ch, st, ss); err == nil {
			out.ASIC, err = st.Finish()
		}
	case j.lut:
		r := j.req
		out.LUT, err = lutmap.MapStream(mg, lutmap.Options{
			Policy: j.cutPolicy, Workers: r.Workers, Pool: r.Pool,
			Rounds: r.Rounds, DelayFactor: r.DelayFactor, Choices: ch,
		})
	default:
		opt := j.mapperOptions(ch)
		if capture {
			// nil for policies that cannot be delta-remapped (shuffle)
			if ms := mapper.NewSnapshot(g, opt); ms != nil {
				opt.CaptureCuts = ms.Capture
				snap = ms
			}
		}
		out.ASIC, err = mapper.MapStream(mg, opt)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s != nil {
		if out.LUT != nil {
			out.LUT.PolicyName = "slap"
		} else {
			out.ASIC.PolicyName = "slap"
		}
	}
	return snap, nil
}

// view resolves the choice view a job maps over: nil when Choices is off,
// else checked out of the Views cache or built fresh. The view shares g's
// PIs and POs, so verification against g is unchanged. Construction
// honours ctx: a dropped client or an expired deadline aborts the build
// instead of burning the full SAT budget.
func (j *job) view(ctx context.Context, g *aig.AIG) (*choice.View, error) {
	switch {
	case !j.req.Choices:
		return nil, nil
	case j.req.Views != nil:
		return j.req.Views.Checkout(ctx, g, j.req.ChoiceOpts)
	}
	return choice.BuildContext(ctx, g, j.req.ChoiceOpts)
}

// check simulates the result against g on Verify's patterns.
func (out *Outcome) check(g *aig.AIG) error {
	rng := rand.New(rand.NewSource(verifySeed))
	if out.LUT != nil {
		return out.LUT.EquivalentTo(g, verifyWords, rng)
	}
	return out.ASIC.Netlist.EquivalentTo(g, verifyWords, rng)
}
