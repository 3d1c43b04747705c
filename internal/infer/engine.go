package infer

import (
	"context"
	"fmt"
	"math"
	"sync"

	"slap/internal/nn"
)

// Options configures an Engine. It has no fields: the engine runs each call
// on the calling goroutine, and the mapping workers that call it already
// supply the parallelism. The type stays so callers keep one constructor
// signature.
type Options struct{}

// passSize is the most samples one internal forward pass carries. A node
// can carry hundreds of cuts; running them in bounded passes over one
// pooled scratch keeps that scratch at passSize samples instead of growing
// with the largest batch ever seen. Per-node batches already fill the GEMM
// tiles at this size.
const passSize = 64

// Block sizes of the padded layout. lanes is the SIMD width in samples (one
// YMM register holds four float64 lanes): a pass pads its sample count to a
// multiple of it. filterBlock and classBlock are the filter and class rows of
// the conv and dense micro-kernels; the engine's weight copies pad Filters
// and Classes to them with zero rows, so no kernel has a row tail.
const (
	lanes       = 4
	filterBlock = 4
	classBlock  = 5
)

// Engine runs the cut classifier as blocked GEMMs over a batch of
// embeddings, one SIMD lane per sample. It reads the model weights only
// (never mutates them), so one Engine may be shared across goroutines;
// scratch matrices are pooled per call and sized for one pass. See the
// package comment for the matrix layout.
type Engine struct {
	m       *nn.Model
	scratch sync.Pool // *scratch

	// Padded, transposed weight copies built once by NewEngine. fp and cp
	// are Filters and Classes rounded up to filterBlock and classBlock; the
	// padding rows are zero and their outputs are never read.
	fp, cp  int
	convWT  []float64 // Rows × fp: convWT[i·fp+f] = ConvW[f·Rows+i]
	convB   []float64 // fp
	denseWT []float64 // flat × cp: denseWT[k·cp+c] = DenseW[c·flat+k]
	denseB  []float64 // cp
}

// scratch holds one pass's working matrices, pooled across ForwardBatch
// calls and never larger than passSize samples (padded to lanes).
type scratch struct {
	xn     []float64 // (Rows·Cols) × bp: xn[e·bp+b] = normalised element e of sample b
	conv   []float64 // fp × (Cols·bp): post-ReLU conv output = the dense operand
	logits []float64 // cp × bp
}

// NewEngine returns a batched GEMM backend over m.
func NewEngine(m *nn.Model, _ Options) *Engine {
	flat := m.Filters * m.Cols
	e := &Engine{
		m:  m,
		fp: roundUp(m.Filters, filterBlock),
		cp: roundUp(m.Classes, classBlock),
	}
	e.convWT = make([]float64, m.Rows*e.fp)
	e.convB = make([]float64, e.fp)
	copy(e.convB, m.ConvB)
	for f := 0; f < m.Filters; f++ {
		for i := 0; i < m.Rows; i++ {
			e.convWT[i*e.fp+f] = m.ConvW[f*m.Rows+i]
		}
	}
	e.denseWT = make([]float64, flat*e.cp)
	e.denseB = make([]float64, e.cp)
	copy(e.denseB, m.DenseB)
	for c := 0; c < m.Classes; c++ {
		for k := 0; k < flat; k++ {
			e.denseWT[k*e.cp+c] = m.DenseW[c*flat+k]
		}
	}
	return e
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// Classes implements Backend.
func (e *Engine) Classes() int { return e.m.Classes }

// InputLen implements Backend.
func (e *Engine) InputLen() int { return e.m.Rows * e.m.Cols }

// PredictBatch runs the whole slice as one batch, checking ctx once up
// front. It is core.SLAP's inference backend: each mapping worker hands
// over one node's cut embeddings per call.
func (e *Engine) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.ForwardBatch(xs)
}

// ForwardBatch implements Backend: probabilities for every input, computed
// in passes of at most passSize samples over one pooled scratch. Each pass
// runs pack+normalise, the conv GEMM and the dense GEMM + softmax, and
// writes its rows of one shared output slab.
func (e *Engine) ForwardBatch(xs [][]float64) ([][]float64, error) {
	m := e.m
	bsz := len(xs)
	if bsz == 0 {
		return nil, nil
	}
	in := m.Rows * m.Cols
	for i, x := range xs {
		if len(x) != in {
			return nil, fmt.Errorf("infer: input %d has length %d, want %d", i, len(x), in)
		}
	}

	sc := e.getScratch(roundUp(min(bsz, passSize), lanes))
	defer e.scratch.Put(sc)

	// The output slab is handed to callers and so cannot be pooled.
	slab := make([]float64, bsz*m.Classes)
	out := make([][]float64, bsz)
	for b := range out {
		out[b] = slab[b*m.Classes : (b+1)*m.Classes]
	}
	for lo := 0; lo < bsz; lo += passSize {
		hi := min(lo+passSize, bsz)
		e.forward(xs[lo:hi], out[lo:hi], sc)
	}
	return out, nil
}

// forward runs one pass of at most passSize samples through sc. The sample
// count is padded to bp lanes; padding lanes carry stale scratch values
// through every stage and are never read back, since no stage mixes lanes.
func (e *Engine) forward(xs, out [][]float64, sc *scratch) {
	bp := roundUp(len(xs), lanes)
	e.pack(xs, sc.xn, bp)
	e.conv(sc.xn, sc.conv, bp)
	e.dense(sc.conv, sc.logits, bp)
	for b := range xs {
		softmax(sc.logits[b:], bp, out[b])
	}
}

func (e *Engine) getScratch(bp int) *scratch {
	m := e.m
	sc, _ := e.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	sc.xn = grow(sc.xn, m.Rows*m.Cols*bp)
	sc.conv = grow(sc.conv, e.fp*m.Cols*bp)
	sc.logits = grow(sc.logits, e.cp*bp)
	return sc
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// pack normalises the samples into the lane layout: xn is a (Rows·Cols) × bp
// matrix whose element (e, b) is (x_b[e] - Mean[e]) / Std[e]. Row i·Cols+j is
// also column block j of input row i, so xn doubles as the conv GEMM's
// Rows × (Cols·bp) operand with column j·bp+b. The AVX path transposes four
// samples at a time in registers; element and sample tails run the scalar
// loop, which rounds identically.
func (e *Engine) pack(xs [][]float64, xn []float64, bp int) {
	m := e.m
	in := m.Rows * m.Cols
	b := 0
	if hasAVX {
		n := in &^ (lanes - 1)
		for ; b+lanes <= len(xs); b += lanes {
			packAVX(&xs[b][0], &xs[b+1][0], &xs[b+2][0], &xs[b+3][0], &m.Mean[0], &m.Std[0], &xn[b], n, bp)
			for t := b; t < b+lanes; t++ {
				packSample(xs[t], m.Mean, m.Std, xn, t, bp, n)
			}
		}
	}
	for ; b < len(xs); b++ {
		packSample(xs[b], m.Mean, m.Std, xn, b, bp, 0)
	}
}

// packSample normalises elements [from, len(x)) of sample b into lane b.
func packSample(x, mean, std, xn []float64, b, bp, from int) {
	for i := from; i < len(x); i++ {
		xn[i*bp+b] = (x[i] - mean[i]) / std[i]
	}
}

// conv computes the conv GEMM with ReLU fused into the store: convWTᵀ
// (fp × Rows) times xn (Rows × (Cols·bp)), giving fp × (Cols·bp) with column
// j·bp+b. Row f, column block j is row f·Cols+j of a (Filters·Cols) × bp
// matrix, which is the dense GEMM's operand (flat activation index × sample
// lane) as it stands. Every output element starts from the bias and adds in
// ascending row order, as in nn.Model's forward; the ReLU maps NaN and -0 to
// +0 like the scalar "v > 0 ? v : 0".
func (e *Engine) conv(xn, out []float64, bp int) {
	m := e.m
	cb := m.Cols * bp
	if hasAVX {
		convAVX(&xn[0], &e.convWT[0], &e.convB[0], &out[0], m.Rows, cb, e.fp)
		return
	}
	// Portable micro-kernel: 2 filters × 4 columns, eight independent
	// accumulator chains sharing every input load.
	fp := e.fp
	for col := 0; col < cb; col += lanes {
		for f := 0; f < fp; f += 2 {
			b0, b1 := e.convB[f], e.convB[f+1]
			a00, a01, a02, a03 := b0, b0, b0, b0
			a10, a11, a12, a13 := b1, b1, b1, b1
			for i := 0; i < m.Rows; i++ {
				x := xn[i*cb+col : i*cb+col+lanes : i*cb+col+lanes]
				w0, w1 := e.convWT[i*fp+f], e.convWT[i*fp+f+1]
				a00 += w0 * x[0]
				a01 += w0 * x[1]
				a02 += w0 * x[2]
				a03 += w0 * x[3]
				a10 += w1 * x[0]
				a11 += w1 * x[1]
				a12 += w1 * x[2]
				a13 += w1 * x[3]
			}
			r0 := out[f*cb+col : f*cb+col+lanes : f*cb+col+lanes]
			r1 := out[(f+1)*cb+col : (f+1)*cb+col+lanes : (f+1)*cb+col+lanes]
			r0[0], r0[1], r0[2], r0[3] = relu(a00), relu(a01), relu(a02), relu(a03)
			r1[0], r1[1], r1[2], r1[3] = relu(a10), relu(a11), relu(a12), relu(a13)
		}
	}
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// dense computes the logits as a cp × bp matrix, one lane per sample:
// denseWTᵀ (cp × flat) times the conv output read as flat × bp. Every class
// is vectorised across samples; each output element accumulates bias-first
// in ascending k order, as in nn.Model's forward.
func (e *Engine) dense(act, logits []float64, bp int) {
	m := e.m
	flat := m.Filters * m.Cols
	if hasAVX {
		denseAVX(&act[0], &e.denseWT[0], &e.denseB[0], &logits[0], flat, bp, e.cp)
		return
	}
	// Portable micro-kernel: 1 class × 4 samples, skipping padding classes.
	cp := e.cp
	for s := 0; s < bp; s += lanes {
		for c := 0; c < m.Classes; c++ {
			bias := e.denseB[c]
			a0, a1, a2, a3 := bias, bias, bias, bias
			for k := 0; k < flat; k++ {
				w := e.denseWT[k*cp+c]
				x := act[k*bp+s : k*bp+s+lanes : k*bp+s+lanes]
				a0 += w * x[0]
				a1 += w * x[1]
				a2 += w * x[2]
				a3 += w * x[3]
			}
			l := logits[c*bp+s : c*bp+s+lanes : c*bp+s+lanes]
			l[0], l[1], l[2], l[3] = a0, a1, a2, a3
		}
	}
}

// softmax fills out with the stable softmax of one sample's logits, read at
// logits[c·stride], using the same max-subtract / exp / normalise operation
// order as the per-sample path.
func softmax(logits []float64, stride int, out []float64) {
	maxv := math.Inf(-1)
	for c := range out {
		if v := logits[c*stride]; v > maxv {
			maxv = v
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(logits[c*stride] - maxv)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}
