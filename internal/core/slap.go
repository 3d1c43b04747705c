// Package core implements SLAP, the paper's primary contribution: a
// supervised-learning replacement for the cut sorting and filtering
// heuristics of a priority-cuts technology mapper.
//
// The flow mirrors the paper's framework (Fig. 4):
//
//  1. Training (§IV-B): random-shuffle mappings of two 16-bit adders
//     produce cut datapoints labelled with delay deciles; a small CNN
//     (internal/nn) learns to predict a cut's QoR class.
//  2. Mapping (§IV-C, prepare_map/read_cuts): all k-cuts of the subject
//     graph are enumerated, embedded and classified; per node, the
//     predicted classes drive a good/average/trivial keep decision; the
//     pruned cut lists feed the unmodified mapper.
//  3. Explainability (§V-D): permutation feature importance over the
//     validation set.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/circuits"
	"slap/internal/cuts"
	"slap/internal/dataset"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/nn"
)

// Default QoR-class thresholds (paper §IV-C): classes 0..3 are "good",
// 4..6 "average", above "bad".
const (
	DefaultGoodMax = 3
	DefaultAvgMax  = 6
)

// SLAP bundles a trained cut classifier with the filtering thresholds and
// the target library.
type SLAP struct {
	// Model is the trained cut classifier.
	Model *nn.Model
	// Library is the target standard-cell library.
	Library *library.Library
	// GoodMax and AvgMax are the class thresholds of the keep decision.
	GoodMax, AvgMax int
	// MergeCap bounds the exhaustive pre-filter enumeration (0 = default).
	MergeCap int
	// Workers bounds parallelism for both cut enumeration (the level
	// wavefront of cuts.Enumerator) and inference (0 = GOMAXPROCS,
	// 1 = fully sequential).
	Workers int
	// UseExpectedClass scores cuts by the probability-weighted expected
	// class instead of the paper's hard argmax. An evaluated-but-off-by-
	// default variant (see EXPERIMENTS.md §ablations).
	UseExpectedClass bool
	// MaxCutsPerNode, when positive, caps how many threshold-passing cuts
	// each node keeps, ranked by predicted quality. Zero or negative keeps
	// them all (the paper's literal keep-all-good rule, the default).
	MaxCutsPerNode int
	// Batch overrides the inference backend. Each mapping worker submits a
	// whole node's cut embeddings as one PredictBatch call. Nil classifies
	// through an infer.Engine over Model, built once per map call; callers
	// that map many designs with one model (the server) set a shared
	// *infer.Engine here. The engine accumulates in nn.Model's per-sample
	// order, so filtering decisions — and hence mapping QoR — match
	// Model.Predict bit for bit.
	Batch Batcher
	// Pool, when set, lets the mapping recycle cut-arena storage across
	// runs of the same graph shape.
	Pool *cuts.Pool
	// Rounds selects multi-round mapping: round 1 is the delay-optimal
	// (depth-optimal for LUTs) pass, later rounds re-select covers by area
	// flow under the round-1 required times, and the final round adds
	// exact-area refinement. Values <= 1 keep today's single-pass flow.
	// Recovery rounds draw from a wider cut pool (the average-class cuts the
	// keep decision would have dropped), scored by the same single inference
	// pass — no extra model evaluations per round.
	Rounds int
	// DelayFactor relaxes the recovery rounds' required times: the delay
	// target is round-1 delay times this factor. Values < 1 (including the
	// zero value) clamp to 1.0, i.e. no delay degradation is allowed.
	DelayFactor float64
	// Choices maps over a choice view of the subject graph instead of the
	// graph itself: functionally equivalent variants (internal/opt rewrites)
	// are grafted in and the enumerator matches the union of each
	// equivalence class's cuts (internal/choice). The view shares the base
	// graph's PIs and POs, so results verify against the original graph.
	Choices bool
	// ChoiceOpts tunes choice-view construction when Choices is set (zero
	// value = the choice package defaults). Its Workers field is a pure
	// scheduling knob; every other field changes the built view and is part
	// of ConfigSig.
	ChoiceOpts choice.Options
	// Views, when non-nil, caches built choice views content-addressed by
	// (graph, ChoiceOpts) with singleflight dedup, so repeat Choices
	// mappings of the same design skip view construction entirely. Nil
	// builds a fresh view per call.
	Views *choice.Cache
}

// inferWorker is one mapping worker's inference state for a single map
// call: the call's backend and a growable embedding slab reused across
// nodes. CutInto overwrites every position and the backend never retains
// its input, so reuse across nodes is exact.
type inferWorker struct {
	batch Batcher
	slab  []float64
	xs    [][]float64
}

func (w *inferWorker) inputs(n int) ([]float64, [][]float64) {
	if cap(w.slab) < n*embed.Size {
		w.slab = make([]float64, n*embed.Size)
	}
	if cap(w.xs) < n {
		w.xs = make([][]float64, n)
	}
	return w.slab[:n*embed.Size], w.xs[:n]
}

// Batcher classifies batches of cut embeddings. *infer.Engine is the
// shipped implementation.
type Batcher interface {
	// PredictBatch returns one probability vector per input, or an error
	// (e.g. ctx done, backend closed) that fails the whole mapping call.
	PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error)
}

// argmaxClass mirrors nn.Model.PredictClass exactly (first-wins on ties) so
// batched and per-sample classification agree on every input.
func argmaxClass(probs []float64) int {
	best, bi := math.Inf(-1), 0
	for c, p := range probs {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}

// scoreFromProbs converts a probability vector to the model's continuous QoR
// score (lower is better): the paper's argmax class or, with expected set,
// the probability-weighted expected class summed in ascending class order,
// which doubles as the ranking priority when MaxCutsPerNode is set.
func scoreFromProbs(probs []float64, expected bool) float64 {
	if !expected {
		return float64(argmaxClass(probs))
	}
	e := 0.0
	for c, p := range probs {
		e += float64(c) * p
	}
	return e
}

// New wraps a (typically deserialised) model and a library into a SLAP
// instance with the paper's default thresholds.
func New(model *nn.Model, lib *library.Library) *SLAP {
	return &SLAP{
		Model:   model,
		Library: lib,
		GoodMax: DefaultGoodMax,
		AvgMax:  DefaultAvgMax,
	}
}

// TrainOptions configures end-to-end model training.
type TrainOptions struct {
	// Library is the target cell library (required).
	Library *library.Library
	// Circuits are the training designs; nil uses the paper's two 16-bit
	// adders (ripple-carry and carry-lookahead).
	Circuits []*aig.AIG
	// MapsPerCircuit is the number of random-shuffle mappings per circuit
	// (0 = 400).
	MapsPerCircuit int
	// Epochs is the number of training epochs (0 = 50, as in the paper).
	Epochs int
	// Filters is the convolution width (0 = 128, as in the paper).
	Filters int
	// Seed drives data generation, splitting and initialisation.
	Seed int64
	// ValFraction is the held-out fraction (0 = 0.2).
	ValFraction float64
	// Metric selects the QoR metric that labels training cuts (default:
	// delay, as in the paper; area and ADP are supported per §IV-B).
	Metric dataset.Metric
	// Dataset, when set, skips data generation entirely and trains on the
	// provided samples — the hand-off point for genjob's sharded,
	// fault-tolerant sweeps (slap-train -shards / -resume).
	Dataset *dataset.Dataset
	// Verbose prints per-epoch progress.
	Verbose bool
}

// TrainReport summarises a training run (paper §V-B).
type TrainReport struct {
	// Samples is the dataset size; TrainSamples/ValSamples the split sizes.
	Samples, TrainSamples, ValSamples int
	// ClassHistogram counts samples per QoR class.
	ClassHistogram []int
	// MultiClassAccuracy is the 10-class validation accuracy (paper: ~34%).
	MultiClassAccuracy float64
	// BinaryAccuracy is the keep/drop validation accuracy with the paper's
	// threshold of class 6 (paper: 93.4%).
	BinaryAccuracy float64
	// History holds per-epoch training stats.
	History []nn.EpochStats
	// ValX and ValY retain the validation set for explainability runs.
	ValX [][]float64
	ValY []int
}

// Train generates training data, fits the classifier and returns the SLAP
// instance plus an accuracy report.
func Train(opt TrainOptions) (*SLAP, *TrainReport, error) {
	if opt.Library == nil {
		return nil, nil, fmt.Errorf("core: TrainOptions.Library is required")
	}
	circuitsList := opt.Circuits
	if circuitsList == nil {
		circuitsList = []*aig.AIG{circuits.TrainRC16(), circuits.TrainCLA16()}
	}
	maps := opt.MapsPerCircuit
	if maps == 0 {
		maps = 400
	}
	epochs := opt.Epochs
	if epochs == 0 {
		epochs = 50
	}
	filters := opt.Filters
	if filters == 0 {
		filters = 128
	}
	valFrac := opt.ValFraction
	if valFrac == 0 {
		valFrac = 0.2
	}

	ds := opt.Dataset
	if ds == nil {
		var err error
		ds, err = dataset.Generate(dataset.Config{
			Circuits:       circuitsList,
			Library:        opt.Library,
			MapsPerCircuit: maps,
			Seed:           opt.Seed,
			Metric:         opt.Metric,
		})
		if err != nil {
			return nil, nil, err
		}
	} else if ds.Len() == 0 {
		return nil, nil, fmt.Errorf("core: TrainOptions.Dataset is empty")
	}
	train, val := ds.Split(1-valFrac, opt.Seed+1)

	rng := rand.New(rand.NewSource(opt.Seed + 2))
	model := nn.NewModel(embed.Rows, embed.Cols, filters, ds.Classes, rng)
	model.FitNormalization(train.X)
	history, err := model.Train(train.X, train.Y, nn.TrainConfig{
		Epochs:  epochs,
		Seed:    opt.Seed + 3,
		Verbose: opt.Verbose,
	})
	if err != nil {
		return nil, nil, err
	}

	report := &TrainReport{
		Samples:            ds.Len(),
		TrainSamples:       train.Len(),
		ValSamples:         val.Len(),
		ClassHistogram:     ds.ClassHistogram(),
		MultiClassAccuracy: model.Accuracy(val.X, val.Y),
		BinaryAccuracy:     model.BinaryAccuracy(val.X, val.Y, DefaultAvgMax),
		History:            history,
		ValX:               val.X,
		ValY:               val.Y,
	}
	s := &SLAP{
		Model:   model,
		Library: opt.Library,
		GoodMax: DefaultGoodMax,
		AvgMax:  DefaultAvgMax,
	}
	return s, report, nil
}

// FilterCuts runs the prepare_map + inference steps: it enumerates all
// k-cuts of g (no heuristic pruning), classifies every cut, and applies the
// good/average/trivial keep decision per node. The returned cut sets are
// what read_cuts feeds to the mapper; TotalCuts is the SLAP "Cuts Used"
// metric.
func (s *SLAP) FilterCuts(g *aig.AIG) *cuts.Result {
	res, _ := s.FilterCutsContext(context.Background(), g)
	return res
}

// FilterCutsContext is FilterCuts with cooperative cancellation: the
// classification workers poll ctx between nodes and the whole call returns
// ctx.Err() as soon as the deadline passes or the caller gives up — the
// per-request timeout path of the slap-serve front end.
func (s *SLAP) FilterCutsContext(ctx context.Context, g *aig.AIG) (*cuts.Result, error) {
	res, _, err := s.filterCutsChoices(ctx, g, nil)
	return res, err
}

// filterCutsChoices is the shared two-phase filtering front end: enumerate
// (optionally across a choice source), classify, apply the keep decision.
// When Rounds > 1 it additionally returns the per-node recovery pool — the
// average-class cuts the keep decision dropped, ranked by their already-
// computed scores — for the mapper's area-recovery rounds.
func (s *SLAP) filterCutsChoices(ctx context.Context, g *aig.AIG, ch cuts.ChoiceSource) (*cuts.Result, [][]cuts.Cut, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers, Choices: ch}
	res := enum.Run()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	nodes := make([]uint32, 0, g.NumNodes())
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			nodes = append(nodes, n)
		}
	}
	var extras [][]cuts.Cut
	if s.Rounds > 1 {
		extras = make([][]cuts.Cut, g.NumNodes())
	}
	if err := s.filterSubset(ctx, emb, nodes, res.Sets, extras); err != nil {
		return nil, nil, err
	}

	total := 0
	for _, n := range nodes {
		total += len(res.Sets[n])
	}
	res.TotalCuts = total
	return res, extras, nil
}

// filterSubset runs the ML keep decision over the listed AND nodes,
// rewriting sets[n] in place: the per-node pass shared by the full filter
// and the ECO delta path (which hands it dirty nodes only). A non-nil
// extras receives each node's recovery pool (see filterNode).
func (s *SLAP) filterSubset(ctx context.Context, emb *embed.Embedder, nodes []uint32, sets, extras [][]cuts.Cut) error {
	return s.filterNodes(ctx, emb, nodes, sets, sets, extras, s.inferWorkers())
}

// filterNodes classifies the listed nodes across the inference workers,
// writing each node's kept list to filtered[n] and, when extras is
// non-nil, its recovery pool to extras[n].
func (s *SLAP) filterNodes(ctx context.Context, emb *embed.Embedder, nodes []uint32, sets, filtered, extras [][]cuts.Cut, workers []*inferWorker) error {
	return strided(ctx, len(workers), len(nodes), func(ctx context.Context, w, i int) error {
		n := nodes[i]
		out, ex, err := s.filterNode(ctx, emb, n, sets[n], workers[w])
		if err != nil {
			return err
		}
		filtered[n] = out
		if extras != nil {
			extras[n] = ex
		}
		return nil
	})
}

// workers resolves the Workers knob (0 = GOMAXPROCS).
func (s *SLAP) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// inferWorkers resolves one map call's inference backend — s.Batch, or a
// fresh infer.Engine over s.Model — and gives every worker its own
// embedding slab over it.
func (s *SLAP) inferWorkers() []*inferWorker {
	b := s.Batch
	if b == nil {
		b = infer.NewEngine(s.Model, infer.Options{})
	}
	ws := make([]*inferWorker, s.workers())
	for i := range ws {
		ws[i] = &inferWorker{batch: b}
	}
	return ws
}

// strided runs fn over the indices [0, n) on workers goroutines, worker w
// taking w, w+workers, ...: the loop every per-node pass shares. The first
// error cancels the siblings' context and is returned; callers write
// results to per-index slots, so the output does not depend on workers.
// One worker or one index runs inline, without a goroutine.
func strided(ctx context.Context, workers, n int, fn func(ctx context.Context, w, i int) error) error {
	if workers == 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, 0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if cctx.Err() != nil {
					return
				}
				if err := fn(cctx, w, i); err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// nonTrivialIdx lists the indices of the non-trivial cuts of n within cs.
func nonTrivialIdx(n uint32, cs []cuts.Cut) []int {
	idx := make([]int, 0, len(cs))
	for i := range cs {
		if !cs[i].IsTrivial(n) {
			idx = append(idx, i)
		}
	}
	return idx
}

// nodeProbs returns the class probabilities of every non-trivial cut of n:
// probs[k] belongs to cs[idx[k]]. It embeds those cuts into the worker's
// slab and classifies them with a single PredictBatch submission.
// PredictBatch blocks until the batch is computed and the backend keeps no
// reference to the inputs afterwards, so the slab is free for the worker's
// next node.
func nodeProbs(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, w *inferWorker) (idx []int, probs [][]float64, err error) {
	idx = nonTrivialIdx(n, cs)
	if len(idx) == 0 {
		return idx, nil, nil
	}
	slab, xs := w.inputs(len(idx))
	for k, i := range idx {
		x := slab[k*embed.Size : (k+1)*embed.Size]
		emb.CutInto(n, &cs[i], x)
		xs[k] = x
	}
	probs, err = w.batch.PredictBatch(ctx, xs)
	return idx, probs, err
}

// filterNode applies the paper's keep decision to one node's cut list:
// classify every cut; keep the "good" cuts (class <= GoodMax) when any
// exist, otherwise the "average" cuts (class <= AvgMax), otherwise only the
// trivial cut. Kept cuts are ordered by predicted quality and capped at
// MaxCutsPerNode — the learned priority-cuts ranking.
//
// When Rounds > 1 it also returns the node's recovery pool: the acceptable
// cuts the keep decision dropped (the average class shadowed by good cuts,
// plus any MaxCutsPerNode overflow), score-ranked. Bad-class cuts never
// enter either list, and the pool reuses the scores of the single inference
// pass above — the per-round pruning adds no model evaluations.
func (s *SLAP) filterNode(ctx context.Context, emb *embed.Embedder, n uint32, cs []cuts.Cut, w *inferWorker) ([]cuts.Cut, []cuts.Cut, error) {
	idx, probs, err := nodeProbs(ctx, emb, n, cs, w)
	if err != nil {
		return nil, nil, err
	}
	type scored struct {
		cut   cuts.Cut
		score float64
	}
	var good, avg []scored
	for k, i := range idx {
		score := scoreFromProbs(probs[k], s.UseExpectedClass)
		class := int(score + 0.5)
		switch {
		case class <= s.GoodMax:
			good = append(good, scored{cut: cs[i], score: score})
		case class <= s.AvgMax:
			avg = append(avg, scored{cut: cs[i], score: score})
		}
	}
	keep, rest := good, avg
	if len(keep) == 0 {
		keep, rest = avg, nil
	}
	if len(keep) == 0 {
		// No acceptable cut: only the trivial cut survives; the mapper's
		// elementary-fanin-cut fallback keeps the node coverable.
		return []cuts.Cut{trivialOf(n, cs)}, nil, nil
	}
	sort.SliceStable(keep, func(i, j int) bool { return keep[i].score < keep[j].score })
	var overflow []scored
	if s.MaxCutsPerNode > 0 && len(keep) > s.MaxCutsPerNode {
		overflow = keep[s.MaxCutsPerNode:]
		keep = keep[:s.MaxCutsPerNode]
	}
	out := make([]cuts.Cut, 0, len(keep)+1)
	for _, k := range keep {
		out = append(out, k.cut)
	}
	out = append(out, trivialOf(n, cs))
	var extra []cuts.Cut
	if s.Rounds > 1 && len(overflow)+len(rest) > 0 {
		pool := make([]scored, 0, len(overflow)+len(rest))
		pool = append(pool, overflow...)
		pool = append(pool, rest...)
		sort.SliceStable(pool, func(i, j int) bool { return pool[i].score < pool[j].score })
		extra = make([]cuts.Cut, len(pool))
		for i := range pool {
			extra[i] = pool[i].cut
		}
	}
	return out, extra, nil
}

func trivialOf(n uint32, cs []cuts.Cut) cuts.Cut {
	for i := range cs {
		if cs[i].IsTrivial(n) {
			return cs[i]
		}
	}
	// The enumerator always appends the trivial cut; this is unreachable
	// for enumerator-produced lists but keeps the function total.
	return cuts.Cut{Leaves: []uint32{n}}
}

// NodeCutClasses lists the predicted QoR class of every non-trivial cut of
// one AND node, in the enumeration order of the cut set.
type NodeCutClasses struct {
	// Node is the subject-graph node.
	Node uint32
	// Classes holds one predicted class (0..Classes-1) per non-trivial cut.
	Classes []int
}

// Classification is the result of ClassifyContext — the inference half of
// the SLAP flow without the keep decision or the mapper, served by the
// slap-serve /v1/classify endpoint.
type Classification struct {
	// Nodes lists per-node cut classes in ascending node order.
	Nodes []NodeCutClasses
	// Histogram counts classified cuts per QoR class.
	Histogram []int
	// TotalCuts is the number of classified (non-trivial) cuts.
	TotalCuts int
}

// ClassifyContext enumerates all k-cuts of g and predicts each non-trivial
// cut's QoR class, without filtering or mapping. Parallelism follows
// s.Workers; cancellation follows ctx as in FilterCutsContext.
func (s *SLAP) ClassifyContext(ctx context.Context, g *aig.AIG) (*Classification, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	enum := &cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}, MergeCap: s.MergeCap, Workers: s.Workers}
	res := enum.Run()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	emb := embed.NewEmbedder(g)
	emb.PrecomputeAll()

	nodes := make([]uint32, 0, g.NumNodes())
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.IsAnd(n) {
			nodes = append(nodes, n)
		}
	}
	perNode := make([][]int, len(nodes))
	workers := s.inferWorkers()
	err := strided(ctx, len(workers), len(nodes), func(ctx context.Context, w, i int) error {
		_, probs, err := nodeProbs(ctx, emb, nodes[i], res.Sets[nodes[i]], workers[w])
		classes := make([]int, len(probs))
		for k, p := range probs {
			classes[k] = argmaxClass(p)
		}
		perNode[i] = classes
		return err
	})
	if err != nil {
		return nil, err
	}

	out := &Classification{Histogram: make([]int, s.Model.Classes)}
	for ni, n := range nodes {
		out.Nodes = append(out.Nodes, NodeCutClasses{Node: n, Classes: perNode[ni]})
		for _, c := range perNode[ni] {
			out.Histogram[c]++
			out.TotalCuts++
		}
	}
	return out, nil
}
