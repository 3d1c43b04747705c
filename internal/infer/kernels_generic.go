//go:build !amd64

package infer

// hasAVX is false off amd64; the engine always takes the portable kernels.
const hasAVX = false

func packAVX(x0, x1, x2, x3, mean, std, dst *float64, n, bp int) {
	panic("infer: packAVX without AVX support")
}

func convAVX(xn, wT, bias, out *float64, rows, cb, fp int) {
	panic("infer: convAVX without AVX support")
}

func denseAVX(act, wT, bias, out *float64, flat, bp, cp int) {
	panic("infer: denseAVX without AVX support")
}
