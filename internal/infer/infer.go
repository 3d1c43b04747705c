// Package infer is the batched inference engine of the SLAP flow: where
// internal/nn runs one 15×10 cut embedding at a time through triple-nested
// loops, this package packs B embeddings into matrices and runs the whole
// classifier — conv → ReLU → dense → softmax — as blocked GEMMs (Engine).
// Every shipped mapping flow calls one shared Engine directly, with one
// PredictBatch per node; the Engine runs a batch in internal passes of at
// most 64 samples, so its pooled scratch stays bounded however many cuts a
// node carries.
//
// A pass has one layout, in which SIMD lanes are samples: B is padded to a
// multiple of 4 lanes (bp), and sample b's input element e lands at
// xn[e·bp+b]. The conv layer's 15×1 filters span all input rows, so the
// convolution is one Filters×15 by 15×(10·bp) matmul, and its output row f,
// column block j is already row f·10+j of the dense layer's (Filters·10)×bp
// operand; the dense layer is one Classes×(Filters·10) by (Filters·10)×bp
// matmul giving Classes×bp logits. On amd64 with AVX the pack, conv and dense
// kernels are assembly (kernels_amd64.s); elsewhere the same layout runs in
// portable Go. Every kernel accumulates each output element in exactly the
// order the per-sample nn.Model forward pass does (bias first, then
// ascending k) with separate multiply and add roundings, so batched
// probabilities match nn.Model.Predict to the last bit on every platform
// with consistent FP contraction.
//
// Coalescer merges PredictBatch calls from many goroutines into shared
// forward passes flushed on size or deadline. No shipped flow uses it: it
// is kept only for the benchmark's replay of the SLAP map (perfbench).
package infer

import "errors"

// ErrClosed is returned by Coalescer submissions after Close.
var ErrClosed = errors.New("infer: coalescer closed")

// Backend computes class probabilities for a batch of inputs. Engine is the
// production implementation; Coalescer takes any Backend so its tests can
// count and fail calls.
//
// Backends must be safe for concurrent ForwardBatch calls: every mapping
// worker of every request shares one Engine.
type Backend interface {
	// Classes returns the output probability-vector length.
	Classes() int
	// InputLen returns the required flat input length (Rows·Cols).
	InputLen() int
	// ForwardBatch returns one probability vector per input. The returned
	// slices are freshly allocated and owned by the caller.
	ForwardBatch(xs [][]float64) ([][]float64, error)
}
