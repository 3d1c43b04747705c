package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slap/internal/aig"
	"slap/internal/choice"
	"slap/internal/core"
	"slap/internal/cuts"
	"slap/internal/embed"
	"slap/internal/infer"
	"slap/internal/library"
	"slap/internal/lutmap"
	"slap/internal/mapper"
	"slap/internal/nn"
)

// span is one timed call at a layer boundary. Spans of one design share
// its name; Parent is 0 for a design's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Design  string `json:"design"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, design string, parent int) int {
	start := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Design: design, StartNS: start})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name, design string, parent int, f func(id int)) time.Duration {
	id := t.begin(name, design, parent)
	f(id)
	return t.end(id)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedBatcher wraps an inference batcher and times every PredictBatch
// call as a span named span under parent.
type timedBatcher struct {
	inner   core.Batcher
	span    string
	tr      *tracer
	design  string
	parent  int
	calls   atomic.Int64
	samples atomic.Int64
	busy    atomic.Int64 // summed call time in ns
}

func (b *timedBatcher) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	id := b.tr.begin(b.span, b.design, b.parent)
	out, err := b.inner.PredictBatch(ctx, xs)
	d := b.tr.end(id)
	b.calls.Add(1)
	b.samples.Add(int64(len(xs)))
	b.busy.Add(int64(d))
	return out, err
}

// cliBatch and cliBatchWait are the slap CLI's inference coalescer
// defaults (-batch 256 -batch-wait 1ms).
const (
	cliBatch     = 256
	cliBatchWait = time.Millisecond
)

// engineChunk is how many embeddings the engine-floor probe sends to
// Engine.ForwardBatch at once.
const engineChunk = 1024

// flow names the path a workload's design takes through the mapper.
type flow int

const (
	// flowSLAP is `slap -policy slap`: SLAP-filtered cuts, one round.
	flowSLAP flow = iota
	// flowChoices is `slap -policy default -rounds 4 -choices`.
	flowChoices
)

// layers accumulates one or more designs' per-layer measurements.
type layers struct {
	designs                int
	decode                 time.Duration
	choiceBuild            time.Duration
	graft, simulate, prove time.Duration
	choiceAlloc            uint64
	proved, provable       int
	enumerate              time.Duration
	cuts                   int
	embed, engine          time.Duration
	predict                time.Duration
	calls, samples         int64
	filter                 time.Duration
	kept, exhaustive       int
	selectT, recovery      time.Duration
	matchAttempts          int
	lutSelect              time.Duration
	luts                   int
	sta, verify, emit      time.Duration
	replay                 time.Duration // decode + shipped map + verify + emit
	cliWall                time.Duration
	area, delay            float64 // of the shipped map, for the design's row
}

func (a *layers) add(b *layers) {
	a.designs += b.designs
	a.decode += b.decode
	a.choiceBuild += b.choiceBuild
	a.graft += b.graft
	a.simulate += b.simulate
	a.prove += b.prove
	a.choiceAlloc += b.choiceAlloc
	a.proved += b.proved
	a.provable += b.provable
	a.enumerate += b.enumerate
	a.cuts += b.cuts
	a.embed += b.embed
	a.engine += b.engine
	a.predict += b.predict
	a.calls += b.calls
	a.samples += b.samples
	a.filter += b.filter
	a.kept += b.kept
	a.exhaustive += b.exhaustive
	a.selectT += b.selectT
	a.recovery += b.recovery
	a.matchAttempts += b.matchAttempts
	a.lutSelect += b.lutSelect
	a.luts += b.luts
	a.sta += b.sta
	a.verify += b.verify
	a.emit += b.emit
	a.replay += b.replay
	a.cliWall += b.cliWall
}

// metrics stores the per-layer metrics the replay measures.
func (a *layers) metrics(m map[string]float64) {
	m["aig.decode_ms"] = ms(a.decode)
	m["choice.build_ms"] = ms(a.choiceBuild)
	m["choice.graft_ms"] = ms(a.graft)
	m["choice.simulate_ms"] = ms(a.simulate)
	m["choice.prove_ms"] = ms(a.prove)
	m["choice.alloc_mb"] = float64(a.choiceAlloc) / (1 << 20)
	m["choice.proved_frac"] = ratio(float64(a.proved), float64(a.provable))
	m["cuts.enumerate_ms"] = ms(a.enumerate)
	m["cuts.cuts"] = float64(a.cuts)
	m["embed.ms"] = ms(a.embed)
	m["infer.engine_ms"] = ms(a.engine)
	m["infer.predict_ms"] = ms(a.predict)
	m["infer.calls"] = float64(a.calls)
	m["infer.batch_mean"] = ratio(float64(a.samples), float64(a.calls))
	m["core.filter_ms"] = ms(a.filter)
	m["core.kept_frac"] = ratio(float64(a.kept), float64(a.exhaustive))
	m["mapper.select_ms"] = ms(a.selectT)
	m["mapper.recovery_ms"] = ms(a.recovery)
	m["mapper.match_attempts"] = float64(a.matchAttempts)
	m["lutmap.select_ms"] = ms(a.lutSelect)
	m["lutmap.luts"] = float64(a.luts)
	m["netlist.sta_ms"] = ms(a.sta)
	m["netlist.verify_ms"] = ms(a.verify)
	m["netlist.emit_ms"] = ms(a.emit)
	m["trace.replay_ms"] = ms(a.replay)
}

// replayer runs designs in-process through the public function of every
// layer. Each probe is timed as its own span under the design's root span.
type replayer struct {
	tr    *tracer
	model *nn.Model
	eng   *infer.Engine
	lib   *library.Library
	seed  int64
}

func newReplayer(m *model, seed int64) (*replayer, error) {
	nm, err := nn.LoadFile(m.path)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	return &replayer{tr: newTracer(), model: nm, eng: infer.NewEngine(nm, infer.Options{}), lib: library.ASAP7ish(), seed: seed}, nil
}

// copySets returns a copy of the per-node cut lists, so a consumer that
// edits lists in place cannot change what the next consumer sees.
func copySets(r *cuts.Result) *cuts.Result {
	out := &cuts.Result{Sets: make([][]cuts.Cut, len(r.Sets)), TotalCuts: r.TotalCuts, PeakCuts: r.PeakCuts}
	for i, cs := range r.Sets {
		out.Sets[i] = append([]cuts.Cut(nil), cs...)
	}
	return out
}

// replay decodes the design from its encoded body and measures every
// layer on it. The shipped path of fl — what the slap CLI runs for the
// workload — is timed as a whole into l.replay; its netlist is then
// checked like any CLI output.
func (r *replayer) replay(name string, body []byte, fl flow) (*layers, error) {
	l := &layers{designs: 1}
	root := r.tr.begin("design", name, 0)
	defer r.tr.end(root)
	do := func(span string, f func(id int)) time.Duration { return r.tr.do(span, name, root, f) }

	var g *aig.AIG
	var err error
	l.decode = do("aig.Decode", func(int) { g, err = aig.Decode(aig.FormatAuto, bytes.NewReader(body)) })
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	// Choice view: build time, its phases, allocation and proof yield.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var v *choice.View
	l.choiceBuild = do("choice.Build", func(int) { v = choice.Build(g, choice.Options{}) })
	runtime.ReadMemStats(&after)
	ph := v.Phases()
	l.graft, l.simulate, l.prove = ph.Graft, ph.Simulate, ph.Prove
	l.choiceAlloc = after.TotalAlloc - before.TotalAlloc
	l.proved = v.ProvedMembers()
	l.provable = v.ProvedMembers() + v.DroppedMembers()

	// Enumeration: exhaustive on the subject graph (what SLAP classifies),
	// or the default policy over the choice view.
	var exhaustive, choiceSets *cuts.Result
	exEnum := func(int) { exhaustive = (&cuts.Enumerator{G: g, Policy: cuts.UnlimitedPolicy{}}).Run() }
	chEnum := func(int) { choiceSets = (&cuts.Enumerator{G: v.G, Policy: cuts.DefaultPolicy{}, Choices: v}).Run() }
	if fl == flowSLAP {
		l.enumerate = do("cuts.Enumerator.Run", exEnum)
		l.cuts = exhaustive.TotalCuts
	} else {
		l.enumerate = do("cuts.Enumerator.Run", chEnum)
		l.cuts = choiceSets.TotalCuts
		exEnum(0)
	}
	l.exhaustive = exhaustive.TotalCuts

	// Embedding and the inference floor: the same embeddings straight
	// through Engine.ForwardBatch, with no coalescing.
	if err := r.embedAndForward(name, root, g, exhaustive, l); err != nil {
		return nil, err
	}

	// The two-phase filter layer on its own: inference straight through
	// the engine, so coalescer waits (infer.predict_ms) stay out of it.
	s := core.New(r.model, r.lib)
	var filtered *cuts.Result
	l.filter = do("core.SLAP.FilterCuts", func(id int) {
		s.Batch = &timedBatcher{inner: r.eng, span: "infer.Engine.PredictBatch", tr: r.tr, design: name, parent: id}
		filtered = s.FilterCuts(g)
	})
	l.kept = filtered.TotalCuts

	// The shipped SLAP map (slap -policy slap): fused streaming through the
	// CLI's coalescer; its PredictBatch calls are the infer.* metrics.
	co := infer.NewCoalescer(r.eng, infer.CoalescerOptions{MaxBatch: cliBatch, MaxWait: cliBatchWait})
	defer co.Close()
	var slapRes *mapper.Result
	slapTime := do("core.SLAP.MapStream", func(id int) {
		tb := &timedBatcher{inner: co, span: "infer.Coalescer.PredictBatch", tr: r.tr, design: name, parent: id}
		s.Batch = tb
		slapRes, err = s.MapStream(g)
		l.predict = time.Duration(tb.busy.Load())
		l.calls, l.samples = tb.calls.Load(), tb.samples.Load()
	})
	if err != nil {
		return nil, fmt.Errorf("core.SLAP.MapStream: %w", err)
	}

	// Cover selection over precomputed cut sets.
	selG, selSets := g, filtered
	if fl == flowChoices {
		selG, selSets = v.G, choiceSets
	}
	l.selectT = do("mapper.Map", func(int) {
		_, err = mapper.Map(selG, mapper.Options{Library: r.lib, CutSets: copySets(selSets)})
	})
	if err != nil {
		return nil, fmt.Errorf("mapper.Map: %w", err)
	}

	// Area recovery: four rounds minus one, default policy; over the choice
	// view for the choice flow (whose four-round map is the shipped one).
	recOpt := mapper.Options{Library: r.lib, Policy: cuts.DefaultPolicy{}}
	if fl == flowChoices {
		recOpt.Choices = v
	}
	var r4 *mapper.Result
	recOpt.Rounds = 4
	t4 := do("mapper.MapStream.rounds4", func(int) { r4, err = mapper.MapStream(selG, recOpt) })
	if err != nil {
		return nil, fmt.Errorf("mapper.MapStream rounds 4: %w", err)
	}
	recOpt.Rounds = 1
	t1 := do("mapper.MapStream.rounds1", func(int) { _, err = mapper.MapStream(selG, recOpt) })
	if err != nil {
		return nil, fmt.Errorf("mapper.MapStream rounds 1: %w", err)
	}
	l.recovery = t4 - t1

	var lut *lutmap.Result
	l.lutSelect = do("lutmap.Map", func(int) {
		lut, err = lutmap.Map(g, lutmap.Options{CutSets: copySets(filtered)})
	})
	if err != nil {
		return nil, fmt.Errorf("lutmap.Map: %w", err)
	}
	l.luts = lut.NumLUTs()

	shipped, shippedTime := slapRes, slapTime
	if fl == flowChoices {
		shipped, shippedTime = r4, l.choiceBuild+t4
	}
	l.matchAttempts = shipped.MatchAttempts
	l.area, l.delay = shipped.Area, shipped.Delay
	l.sta = do("netlist.STA", func(int) { shipped.Netlist.STA() })
	l.verify = do("netlist.EquivalentTo", func(int) {
		err = shipped.Netlist.EquivalentTo(g, 8, rand.New(rand.NewSource(99)))
	})
	if err != nil {
		return nil, fmt.Errorf("netlist.EquivalentTo: %w", err)
	}
	var blif bytes.Buffer
	l.emit = do("netlist.WriteBLIF", func(int) { err = shipped.Netlist.WriteBLIF(&blif) })
	if err != nil {
		return nil, fmt.Errorf("netlist.WriteBLIF: %w", err)
	}
	l.replay = l.decode + shippedTime + l.verify + l.emit
	if err := checkBLIF(blif.Bytes(), g, r.seed); err != nil {
		return nil, fmt.Errorf("replayed netlist: %w", err)
	}
	return l, nil
}

// embedAndForward embeds every non-trivial cut of sets in chunks and runs
// each chunk through Engine.ForwardBatch, timing the two separately.
func (r *replayer) embedAndForward(name string, root int, g *aig.AIG, sets *cuts.Result, l *layers) error {
	var emb *embed.Embedder
	l.embed += r.tr.do("embed.Embedder.PrecomputeAll", name, root, func(int) {
		emb = embed.NewEmbedder(g)
		emb.PrecomputeAll()
	})
	slab := make([]float64, engineChunk*embed.Size)
	xs := make([][]float64, 0, engineChunk)
	var embedID int
	forward := func() error {
		if embedID != 0 {
			l.embed += r.tr.end(embedID)
			embedID = 0
		}
		if len(xs) == 0 {
			return nil
		}
		var err error
		l.engine += r.tr.do("infer.Engine.ForwardBatch", name, root, func(int) { _, err = r.eng.ForwardBatch(xs) })
		xs = xs[:0]
		return err
	}
	for n := range sets.Sets {
		if !g.IsAnd(uint32(n)) {
			continue
		}
		cs := sets.Sets[n]
		for i := range cs {
			if cs[i].IsTrivial(uint32(n)) {
				continue
			}
			if embedID == 0 {
				embedID = r.tr.begin("embed.Embedder.CutInto", name, root)
			}
			k := len(xs)
			x := slab[k*embed.Size : (k+1)*embed.Size]
			emb.CutInto(uint32(n), &cs[i], x)
			xs = append(xs, x)
			if len(xs) == engineChunk {
				if err := forward(); err != nil {
					return fmt.Errorf("infer.Engine.ForwardBatch: %w", err)
				}
			}
		}
	}
	if err := forward(); err != nil {
		return fmt.Errorf("infer.Engine.ForwardBatch: %w", err)
	}
	return nil
}
