//go:build amd64

package infer

// hasAVX gates the vector kernels. Detected once at startup via CPUID/XGETBV
// (AVX instructions present and the OS saves YMM state). It is a variable so
// tests can force the portable path on AVX hosts.
var hasAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU and OS support AVX. Implemented in
// kernels_amd64.s.
func cpuHasAVX() bool

// packAVX normalises elements [0,n) of four samples (n a multiple of 4) and
// transposes them into four adjacent sample lanes: dst[e·bp+t] =
// (x_t[e]-mean[e])/std[e] for t in [0,4). Implemented in kernels_amd64.s.
//
//go:noescape
func packAVX(x0, x1, x2, x3, mean, std, dst *float64, n, bp int)

// convAVX runs the conv GEMM with ReLU fused into the store over the padded
// layout (cb and fp multiples of 4); see Engine.conv. Implemented in
// kernels_amd64.s.
//
//go:noescape
func convAVX(xn, wT, bias, out *float64, rows, cb, fp int)

// denseAVX runs the dense GEMM over the padded layout (bp a multiple of 4,
// cp of 5); see Engine.dense. Implemented in kernels_amd64.s.
//
//go:noescape
func denseAVX(act, wT, bias, out *float64, flat, bp, cp int)
