// Fused SLAP mapping: enumeration, ML cut filtering and Boolean matching
// run as one streaming pipeline over the level wavefront. Each completed
// level is classified in parallel by the inference workers (one batch per
// node through one shared backend), the filtered lists feed the
// incremental mapper on the spot, and the enumerator retires the level's
// cut storage — so the full cut universe is never materialised. Filtering
// decisions are per-node deterministic, so the fused result is
// byte-identical to FilterCuts followed by mapper.Map over the filtered
// sets.
package core

import (
	"context"

	"slap/internal/aig"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/lutmap"
	"slap/internal/mapper"
)

// MapStream runs the SLAP flow on g under s's own configuration through
// Run and returns the standard-cell result.
func (s *SLAP) MapStream(g *aig.AIG) (*mapper.Result, error) {
	out, err := Run(context.Background(), g, s.request("asic"))
	if err != nil {
		return nil, err
	}
	return out.ASIC, nil
}

// MapLUTStream is MapStream against the K-LUT mapper — the extension the
// paper's introduction points to: the same ML-filtered cuts feed the
// depth-oriented LUT coverer unchanged.
func (s *SLAP) MapLUTStream(g *aig.AIG) (*lutmap.Result, error) {
	out, err := Run(context.Background(), g, s.request("lut"))
	if err != nil {
		return nil, err
	}
	return out.LUT, nil
}

// request is the Run request that maps with s's own fields.
func (s *SLAP) request(target string) Request {
	return Request{
		Target: target, Policy: "slap", SLAP: s, Library: s.Library,
		Workers: s.Workers, Rounds: s.Rounds, DelayFactor: s.DelayFactor,
		Choices: s.Choices, ChoiceOpts: s.ChoiceOpts, Views: s.Views, Pool: s.Pool,
	}
}

// consumer is the incremental mapper side of the fused pipeline:
// mapper.Stream or lutmap.Stream.
type consumer interface {
	ConsumeNode(n uint32, cs []cuts.Cut)
	ConsumeExtras(n uint32, cs []cuts.Cut)
	SetPeakCuts(peak int)
}

// feed streams g's ML-filtered cuts into st. A non-nil snap captures each
// AND node's kept list just before the mapper consumes it (and before the
// enumerator retires the level's storage).
func (s *SLAP) feed(ctx context.Context, g *aig.AIG, ch cuts.ChoiceSource, st consumer, snap *SlapSnapshot) error {
	res, err := s.streamFiltered(ctx, g, ch, func(n uint32, kept, extras []cuts.Cut) {
		if snap != nil && g.IsAnd(n) {
			snap.capture(n, kept)
		}
		st.ConsumeNode(n, kept)
		if extras != nil {
			st.ConsumeExtras(n, extras)
		}
	})
	if err != nil {
		return err
	}
	st.SetPeakCuts(res.PeakCuts)
	return nil
}

// streamFiltered drives the fused enumerate→classify→consume pipeline:
// exhaustive streaming enumeration (the same UnlimitedPolicy universe as
// FilterCutsContext, optionally enriched across a choice source), per-level
// parallel ML filtering with per-worker reusable embedding buffers, and a
// sequential consume of the filtered lists in ascending node order (the
// order the two-phase mapper sees). The consumer's second list is the
// node's recovery pool — nil unless Rounds > 1 (see filterNode). When
// s.Pool is set, cut storage is checked out of the arena pool and recycled
// across runs of the same graph.
func (s *SLAP) streamFiltered(ctx context.Context, g *aig.AIG, ch cuts.ChoiceSource, consume func(uint32, []cuts.Cut, []cuts.Cut)) (*cuts.Result, error) {
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	workers := s.inferWorkers()
	filtered := make([][]cuts.Cut, g.NumNodes())
	var extras [][]cuts.Cut
	if s.Rounds > 1 {
		extras = make([][]cuts.Cut, g.NumNodes())
	}
	extrasOf := func(n uint32) []cuts.Cut {
		if extras == nil {
			return nil
		}
		return extras[n]
	}

	var arena *cuts.Arena
	if s.Pool != nil {
		arena = s.Pool.Get(g)
		defer s.Pool.Put(arena)
	}
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers, Arena: arena, Choices: ch}

	sink := func(_ int32, nodes []uint32, sets [][]cuts.Cut) error {
		if err := s.filterNodes(ctx, emb, nodes, sets, filtered, extras, workers); err != nil {
			return err
		}
		// The filtered lists hold durable leaves only after the consumer
		// copies them; consume before the enumerator retires the level.
		for _, n := range nodes {
			consume(n, filtered[n], extrasOf(n))
			filtered[n] = nil
			if extras != nil {
				extras[n] = nil
			}
		}
		return nil
	}
	res, err := enum.RunStream(sink)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
