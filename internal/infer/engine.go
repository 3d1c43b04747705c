package infer

import (
	"context"
	"fmt"
	"math"
	"sync"

	"slap/internal/nn"
)

// Options configures an Engine.
type Options struct {
	// Workers parallelises the GEMM tile loops across goroutines (0 or 1 =
	// single-threaded). Tiles write disjoint output ranges and each output
	// element keeps its sequential accumulation order, so results are
	// identical for any worker count. Parallel tiles only engage in passes
	// large enough for the fan-out to pay for itself.
	Workers int
}

// passSize is the most samples one internal forward pass carries. A node
// can carry hundreds of cuts; running them in bounded passes over one
// pooled scratch keeps that scratch at passSize samples (~1.4 MB for the
// paper's 128-filter model) instead of ~22 KB times the largest batch ever
// seen. Per-node batches already fill the GEMM tiles at this size.
const passSize = 64

// minParallelBatch is the pass size below which the tile loops stay
// sequential even with Workers > 1: a goroutine hand-off costs more than a
// small pass's whole GEMM.
const minParallelBatch = 64

// Engine runs the cut classifier as blocked, cache-tiled GEMMs over a batch
// of embeddings. It reads the model weights only (never mutates them), so
// one Engine may be shared across goroutines; scratch matrices are pooled
// per call and sized for one pass. See the package comment for the matrix
// layout.
type Engine struct {
	m       *nn.Model
	workers int
	scratch sync.Pool // *scratch

	// denseWT is the dense weight matrix transposed to class-major rows
	// (denseWT[k*Classes+c] = DenseW[c*flat+k]), built once when the AVX
	// dense kernel is available so its 8 class lanes load contiguously.
	denseWT []float64
}

// scratch holds one pass's working matrices, pooled across ForwardBatch
// calls and never larger than passSize samples.
type scratch struct {
	xn     []float64 // Rows × (Cols·B): normalised inputs; column b·Cols+j
	conv   []float64 // Filters × (Cols·B): post-ReLU conv activations
	act    []float64 // B × (Filters·Cols): sample-major repack for the dense GEMM
	logits []float64 // B × Classes
}

// NewEngine returns a batched GEMM backend over m.
func NewEngine(m *nn.Model, opt Options) *Engine {
	w := opt.Workers
	if w < 1 {
		w = 1
	}
	e := &Engine{m: m, workers: w}
	if hasAVX && m.Classes >= 8 {
		flat := m.Filters * m.Cols
		wT := make([]float64, flat*m.Classes)
		for c := 0; c < m.Classes; c++ {
			for k := 0; k < flat; k++ {
				wT[k*m.Classes+c] = m.DenseW[c*flat+k]
			}
		}
		e.denseWT = wT
	}
	return e
}

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
// runs three blocked matrix stages (pack+normalise, conv GEMM, dense GEMM +
// softmax) with a repack between the two GEMMs and writes its rows of one
// shared output slab.
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

	sc := e.getScratch(min(bsz, passSize))
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

// forward runs one pass of at most passSize samples through sc.
func (e *Engine) forward(xs, out [][]float64, sc *scratch) {
	m := e.m
	bsz := len(xs)
	cb := m.Cols * bsz
	flat := m.Filters * m.Cols
	workers := e.workers
	if bsz < minParallelBatch {
		workers = 1
	}
	parallelFor(workers, bsz, func(lo, hi int) { e.pack(xs, sc, cb, lo, hi) })
	parallelFor(workers, m.Filters, func(lo, hi int) { e.convTile(sc, cb, lo, hi) })
	parallelFor(workers, bsz, func(lo, hi int) {
		e.repack(sc, cb, flat, lo, hi)
		e.denseTile(sc, flat, lo, hi)
		for b := lo; b < hi; b++ {
			softmax(sc.logits[b*m.Classes:(b+1)*m.Classes], out[b])
		}
	})
}

func (e *Engine) getScratch(bsz int) *scratch {
	m := e.m
	sc, _ := e.scratch.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	sc.xn = grow(sc.xn, m.Rows*m.Cols*bsz)
	sc.conv = grow(sc.conv, m.Filters*m.Cols*bsz)
	sc.act = grow(sc.act, m.Filters*m.Cols*bsz)
	sc.logits = grow(sc.logits, m.Classes*bsz)
	return sc
}

func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// parallelFor splits [0,n) into contiguous chunks across workers; one
// worker runs inline. Chunks are disjoint, so f must only write within its
// range.
func parallelFor(workers, n int, f func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// pack normalises samples [lo,hi) into the conv-ready layout: element
// (i, b·Cols+j) of a Rows × (Cols·B) matrix.
func (e *Engine) pack(xs [][]float64, sc *scratch, cb, lo, hi int) {
	m := e.m
	for b := lo; b < hi; b++ {
		x := xs[b]
		for i := 0; i < m.Rows; i++ {
			src := x[i*m.Cols : (i+1)*m.Cols]
			mean := m.Mean[i*m.Cols : (i+1)*m.Cols]
			std := m.Std[i*m.Cols : (i+1)*m.Cols]
			dst := sc.xn[i*cb+b*m.Cols : i*cb+(b+1)*m.Cols]
			for j := range dst {
				dst[j] = (src[j] - mean[j]) / std[j]
			}
		}
	}
}

// convColTile is the column-tile width of the conv GEMM: every filter
// re-reads all Rows packed-input rows, so the tile is sized to keep a full
// Rows × convColTile block (≈23 KB at 15 rows) L1-resident while the whole
// filter bank streams over it. Without the tiling, the row stride grows
// with the batch and every weight step takes an L1 miss.
const convColTile = 192

// convTile computes filters [lo,hi) of the conv GEMM — ConvW (Filters×Rows)
// times the packed inputs (Rows×(Cols·B)) — with ReLU fused into the store.
// The micro-kernel covers two filters by four columns: eight independent
// accumulator chains sharing every input load, the same register-exact shape
// as densePair (8 accumulators + 2 weights + 4 inputs + 1 product temp fills
// the 15 usable XMM registers without spilling). Each accumulator still
// starts from the bias and adds in ascending row order, exactly like
// nn.Model's forward.
func (e *Engine) convTile(sc *scratch, cb, lo, hi int) {
	m := e.m
	if hasAVX {
		e.convTileAVX(sc, cb, lo, hi)
		return
	}
	for t0 := 0; t0 < cb; t0 += convColTile {
		t1 := min(t0+convColTile, cb)
		f := lo
		for ; f+1 < hi; f += 2 {
			w0 := m.ConvW[f*m.Rows : (f+1)*m.Rows]
			w1 := m.ConvW[(f+1)*m.Rows : (f+2)*m.Rows]
			b0, b1 := m.ConvB[f], m.ConvB[f+1]
			row0 := sc.conv[f*cb : (f+1)*cb]
			row1 := sc.conv[(f+1)*cb : (f+2)*cb]
			col := t0
			for ; col+4 <= t1; col += 4 {
				a00, a01, a02, a03 := b0, b0, b0, b0
				a10, a11, a12, a13 := b1, b1, b1, b1
				off := col
				for i := 0; i < m.Rows; i++ {
					x := sc.xn[off : off+4 : off+4]
					w0v, w1v := w0[i], w1[i]
					a00 += w0v * x[0]
					a01 += w0v * x[1]
					a02 += w0v * x[2]
					a03 += w0v * x[3]
					a10 += w1v * x[0]
					a11 += w1v * x[1]
					a12 += w1v * x[2]
					a13 += w1v * x[3]
					off += cb
				}
				row0[col+0] = relu(a00)
				row0[col+1] = relu(a01)
				row0[col+2] = relu(a02)
				row0[col+3] = relu(a03)
				row1[col+0] = relu(a10)
				row1[col+1] = relu(a11)
				row1[col+2] = relu(a12)
				row1[col+3] = relu(a13)
			}
			for ; col < t1; col++ {
				a0, a1 := b0, b1
				off := col
				for i := 0; i < m.Rows; i++ {
					xv := sc.xn[off]
					a0 += w0[i] * xv
					a1 += w1[i] * xv
					off += cb
				}
				row0[col] = relu(a0)
				row1[col] = relu(a1)
			}
		}
		if f < hi {
			w := m.ConvW[f*m.Rows : (f+1)*m.Rows]
			bias := m.ConvB[f]
			row := sc.conv[f*cb : (f+1)*cb]
			col := t0
			for ; col+4 <= t1; col += 4 {
				a0, a1, a2, a3 := bias, bias, bias, bias
				off := col
				for i := 0; i < m.Rows; i++ {
					x := sc.xn[off : off+4 : off+4]
					wv := w[i]
					a0 += wv * x[0]
					a1 += wv * x[1]
					a2 += wv * x[2]
					a3 += wv * x[3]
					off += cb
				}
				row[col+0] = relu(a0)
				row[col+1] = relu(a1)
				row[col+2] = relu(a2)
				row[col+3] = relu(a3)
			}
			for ; col < t1; col++ {
				a := bias
				off := col
				for i := 0; i < m.Rows; i++ {
					a += w[i] * sc.xn[off]
					off += cb
				}
				row[col] = relu(a)
			}
		}
	}
}

// convTileAVX is the amd64 fast path of convTile: the vector micro-kernel
// handles 8 columns per step and the sub-8 tile remainder falls back to the
// scalar loop. Both produce bit-identical results (see convFilterAVX), so
// tails and the portable path never diverge from the fast path.
func (e *Engine) convTileAVX(sc *scratch, cb, lo, hi int) {
	m := e.m
	for t0 := 0; t0 < cb; t0 += convColTile {
		t1 := min(t0+convColTile, cb)
		n := (t1 - t0) &^ 7
		for f := lo; f < hi; f++ {
			w := m.ConvW[f*m.Rows : (f+1)*m.Rows]
			bias := m.ConvB[f]
			row := sc.conv[f*cb : (f+1)*cb]
			if n > 0 {
				convFilterAVX(&sc.xn[t0], &w[0], &row[t0], m.Rows, cb, n, bias)
			}
			for col := t0 + n; col < t1; col++ {
				a := bias
				off := col
				for i := 0; i < m.Rows; i++ {
					a += w[i] * sc.xn[off]
					off += cb
				}
				row[col] = relu(a)
			}
		}
	}
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// repack transposes samples [lo,hi) of the conv output from filter-major
// (Filters × Cols·B) to the sample-major layout (B × Filters·Cols) the
// dense GEMM streams, matching the flat index f·Cols+j of the per-sample
// activation vector.
func (e *Engine) repack(sc *scratch, cb, flat, lo, hi int) {
	m := e.m
	for b := lo; b < hi; b++ {
		for f := 0; f < m.Filters; f++ {
			copy(sc.act[b*flat+f*m.Cols:b*flat+(f+1)*m.Cols],
				sc.conv[f*cb+b*m.Cols:f*cb+(b+1)*m.Cols])
		}
	}
}

// denseTile computes logits for samples [lo,hi): DenseW (Classes×flat)
// times the activations (flat×B). The micro-kernel covers two samples by
// four classes — eight independent accumulator chains sharing every weight
// and activation load — so the 1280-long dot products run near one
// multiply-add per cycle instead of one per FP-add latency. Accumulation
// order per output element is bias-first ascending-k, as in the per-sample
// path.
func (e *Engine) denseTile(sc *scratch, flat, lo, hi int) {
	if hasAVX && e.denseWT != nil {
		e.denseTileAVX(sc, flat, lo, hi)
		return
	}
	b := lo
	for ; b+1 < hi; b += 2 {
		e.densePair(sc, flat, b)
	}
	if b < hi {
		e.denseOne(sc, flat, b)
	}
}

// denseTileAVX is the amd64 fast path of denseTile: the vector micro-kernel
// covers 8 classes per step over the transposed weights and the sub-8 class
// remainder falls back to the scalar loop. Both produce bit-identical
// results (see denseLogitsAVX), so tails and the portable path never
// diverge from the fast path.
func (e *Engine) denseTileAVX(sc *scratch, flat, lo, hi int) {
	m := e.m
	w8 := m.Classes &^ 7
	for b := lo; b < hi; b++ {
		x := sc.act[b*flat : (b+1)*flat]
		l := sc.logits[b*m.Classes : (b+1)*m.Classes]
		if w8 > 0 && flat > 0 {
			denseLogitsAVX(&x[0], &e.denseWT[0], &m.DenseB[0], &l[0], flat, m.Classes, w8)
		}
		for c := w8; c < m.Classes; c++ {
			w := m.DenseW[c*flat : (c+1)*flat]
			a := m.DenseB[c]
			for k := 0; k < flat; k++ {
				a += w[k] * x[k]
			}
			l[c] = a
		}
	}
}

func (e *Engine) densePair(sc *scratch, flat, b int) {
	m := e.m
	x0 := sc.act[b*flat : (b+1)*flat]
	x1 := sc.act[(b+1)*flat : (b+2)*flat]
	l0 := sc.logits[b*m.Classes : (b+1)*m.Classes]
	l1 := sc.logits[(b+1)*m.Classes : (b+2)*m.Classes]
	c := 0
	for ; c+4 <= m.Classes; c += 4 {
		w0 := m.DenseW[(c+0)*flat : (c+1)*flat]
		w1 := m.DenseW[(c+1)*flat : (c+2)*flat]
		w2 := m.DenseW[(c+2)*flat : (c+3)*flat]
		w3 := m.DenseW[(c+3)*flat : (c+4)*flat]
		a00, a01 := m.DenseB[c+0], m.DenseB[c+0]
		a10, a11 := m.DenseB[c+1], m.DenseB[c+1]
		a20, a21 := m.DenseB[c+2], m.DenseB[c+2]
		a30, a31 := m.DenseB[c+3], m.DenseB[c+3]
		for k := 0; k < flat; k++ {
			x0v, x1v := x0[k], x1[k]
			a00 += w0[k] * x0v
			a01 += w0[k] * x1v
			a10 += w1[k] * x0v
			a11 += w1[k] * x1v
			a20 += w2[k] * x0v
			a21 += w2[k] * x1v
			a30 += w3[k] * x0v
			a31 += w3[k] * x1v
		}
		l0[c+0], l1[c+0] = a00, a01
		l0[c+1], l1[c+1] = a10, a11
		l0[c+2], l1[c+2] = a20, a21
		l0[c+3], l1[c+3] = a30, a31
	}
	for ; c < m.Classes; c++ {
		w := m.DenseW[c*flat : (c+1)*flat]
		a0, a1 := m.DenseB[c], m.DenseB[c]
		for k := 0; k < flat; k++ {
			wv := w[k]
			a0 += wv * x0[k]
			a1 += wv * x1[k]
		}
		l0[c], l1[c] = a0, a1
	}
}

func (e *Engine) denseOne(sc *scratch, flat, b int) {
	m := e.m
	x := sc.act[b*flat : (b+1)*flat]
	l := sc.logits[b*m.Classes : (b+1)*m.Classes]
	c := 0
	for ; c+4 <= m.Classes; c += 4 {
		w0 := m.DenseW[(c+0)*flat : (c+1)*flat]
		w1 := m.DenseW[(c+1)*flat : (c+2)*flat]
		w2 := m.DenseW[(c+2)*flat : (c+3)*flat]
		w3 := m.DenseW[(c+3)*flat : (c+4)*flat]
		a0, a1, a2, a3 := m.DenseB[c+0], m.DenseB[c+1], m.DenseB[c+2], m.DenseB[c+3]
		for k := 0; k < flat; k++ {
			xv := x[k]
			a0 += w0[k] * xv
			a1 += w1[k] * xv
			a2 += w2[k] * xv
			a3 += w3[k] * xv
		}
		l[c+0], l[c+1], l[c+2], l[c+3] = a0, a1, a2, a3
	}
	for ; c < m.Classes; c++ {
		w := m.DenseW[c*flat : (c+1)*flat]
		a := m.DenseB[c]
		for k := 0; k < flat; k++ {
			a += w[k] * x[k]
		}
		l[c] = a
	}
}

// softmax fills out with the stable softmax of logits, using the same
// max-subtract / exp / normalise operation order as the per-sample path.
func softmax(logits, out []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for c, v := range logits {
		out[c] = math.Exp(v - maxv)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}
