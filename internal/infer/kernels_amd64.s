//go:build amd64

#include "textflag.h"

// Every kernel below keeps one SIMD lane per output element and computes it
// with VMULPD then VADDPD (never FMA, which would skip the product rounding),
// bias first and in ascending reduction order, so each lane is bit-identical
// to nn.Model's scalar forward pass. Lanes never mix except in packAVX's
// transpose, which moves already-normalised values without arithmetic.

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE. When both are set,
// XGETBV(0) bits 1-2 confirm the OS saves XMM+YMM state on context switch.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	MOVL	CX, BX
	ANDL	$(1<<27 | 1<<28), BX
	CMPL	BX, $(1<<27 | 1<<28)
	JNE	noavx
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func packAVX(x0, x1, x2, x3, mean, std, dst *float64, n, bp int)
//
// For e in [0,n) step 4, with s = x0..x3 (four samples):
//	v_s = (s[e..e+4] - mean[e..e+4]) / std[e..e+4]
//	transpose the 4×4 block v so row t holds element e+t of all four samples
//	dst[(e+t)·bp .. +4] = row t
//
// VSUBPD/VDIVPD round each lane exactly like the scalar (x-mean)/std.
TEXT ·packAVX(SB), NOSPLIT, $0-72
	MOVQ	x0+0(FP), R8
	MOVQ	x1+8(FP), R9
	MOVQ	x2+16(FP), R10
	MOVQ	x3+24(FP), R11
	MOVQ	mean+32(FP), SI
	MOVQ	std+40(FP), DX
	MOVQ	dst+48(FP), DI
	MOVQ	n+56(FP), CX
	MOVQ	bp+64(FP), AX
	SHLQ	$3, CX          // n in bytes
	SHLQ	$3, AX          // bp in bytes: dst row stride
	XORQ	BX, BX          // e in bytes
packloop:
	CMPQ	BX, CX
	JGE	packdone
	VMOVUPD	(SI)(BX*1), Y8
	VMOVUPD	(DX)(BX*1), Y9
	VMOVUPD	(R8)(BX*1), Y0
	VSUBPD	Y8, Y0, Y0
	VDIVPD	Y9, Y0, Y0      // a0 a1 a2 a3
	VMOVUPD	(R9)(BX*1), Y1
	VSUBPD	Y8, Y1, Y1
	VDIVPD	Y9, Y1, Y1      // b0 b1 b2 b3
	VMOVUPD	(R10)(BX*1), Y2
	VSUBPD	Y8, Y2, Y2
	VDIVPD	Y9, Y2, Y2      // c0 c1 c2 c3
	VMOVUPD	(R11)(BX*1), Y3
	VSUBPD	Y8, Y3, Y3
	VDIVPD	Y9, Y3, Y3      // d0 d1 d2 d3
	VUNPCKLPD	Y1, Y0, Y4  // a0 b0 a2 b2
	VUNPCKHPD	Y1, Y0, Y5  // a1 b1 a3 b3
	VUNPCKLPD	Y3, Y2, Y6  // c0 d0 c2 d2
	VUNPCKHPD	Y3, Y2, Y7  // c1 d1 c3 d3
	VPERM2F128	$0x20, Y6, Y4, Y0 // a0 b0 c0 d0
	VPERM2F128	$0x20, Y7, Y5, Y1 // a1 b1 c1 d1
	VPERM2F128	$0x31, Y6, Y4, Y2 // a2 b2 c2 d2
	VPERM2F128	$0x31, Y7, Y5, Y3 // a3 b3 c3 d3
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, (DI)(AX*1)
	VMOVUPD	Y2, (DI)(AX*2)
	LEAQ	(DI)(AX*2), R12
	VMOVUPD	Y3, (R12)(AX*1)
	LEAQ	(DI)(AX*4), DI
	ADDQ	$32, BX
	JMP	packloop
packdone:
	VZEROUPPER
	RET

// func convAVX(xn, wT, bias, out *float64, rows, cb, fp int)
//
// The conv GEMM out (fp × cb) = relu(bias + wTᵀ · xn), xn being rows × cb and
// wT rows × fp (wT[i·fp+f] = ConvW[f·rows+i]). cb must be a multiple of 4 and
// fp of 4. The micro-kernel covers 4 filters × 8 columns (eight accumulators
// sharing two input loads and four weight broadcasts); a 4-column remainder
// runs 4 filters × 4 columns. Columns are the outer loop, so one column
// block stays in L1 while the whole filter bank streams over it.
//
// VMAXPD operand order matters: acc must be src1 so NaN and -0 resolve to
// src2 (+0), matching the scalar "v > 0 ? v : 0".
//
// Registers: CX = &xn[col], SI = &xn[cb] (end), DI = &out[col], DX = wT,
// BX = bias, R9 = cb bytes, R10 = fp bytes, R12 = f bytes, R8 = &out[f·cb+col],
// R11/R13/AX = inner input pointer, weight pointer and row countdown.
TEXT ·convAVX(SB), NOSPLIT, $0-56
	MOVQ	xn+0(FP), CX
	MOVQ	wT+8(FP), DX
	MOVQ	bias+16(FP), BX
	MOVQ	out+24(FP), DI
	MOVQ	cb+40(FP), R9
	MOVQ	fp+48(FP), R10
	SHLQ	$3, R9
	SHLQ	$3, R10
	LEAQ	(CX)(R9*1), SI
	VXORPD	Y12, Y12, Y12

conv8:
	LEAQ	64(CX), AX
	CMPQ	AX, SI
	JGT	conv4
	XORQ	R12, R12
	MOVQ	DI, R8
conv8f:
	CMPQ	R12, R10
	JGE	conv8next
	VBROADCASTSD	(BX)(R12*1), Y0
	VMOVAPD	Y0, Y1
	VBROADCASTSD	8(BX)(R12*1), Y2
	VMOVAPD	Y2, Y3
	VBROADCASTSD	16(BX)(R12*1), Y4
	VMOVAPD	Y4, Y5
	VBROADCASTSD	24(BX)(R12*1), Y6
	VMOVAPD	Y6, Y7
	MOVQ	CX, R11
	LEAQ	(DX)(R12*1), R13
	MOVQ	rows+32(FP), AX
conv8i:
	TESTQ	AX, AX
	JZ	conv8store
	VMOVUPD	(R11), Y8
	VMOVUPD	32(R11), Y9
	VBROADCASTSD	(R13), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y0, Y0
	VMULPD	Y9, Y10, Y10
	VADDPD	Y10, Y1, Y1
	VBROADCASTSD	8(R13), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y2, Y2
	VMULPD	Y9, Y10, Y10
	VADDPD	Y10, Y3, Y3
	VBROADCASTSD	16(R13), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y4, Y4
	VMULPD	Y9, Y10, Y10
	VADDPD	Y10, Y5, Y5
	VBROADCASTSD	24(R13), Y10
	VMULPD	Y8, Y10, Y11
	VADDPD	Y11, Y6, Y6
	VMULPD	Y9, Y10, Y10
	VADDPD	Y10, Y7, Y7
	ADDQ	R9, R11
	ADDQ	R10, R13
	DECQ	AX
	JMP	conv8i
conv8store:
	VMAXPD	Y12, Y0, Y0
	VMAXPD	Y12, Y1, Y1
	VMAXPD	Y12, Y2, Y2
	VMAXPD	Y12, Y3, Y3
	VMAXPD	Y12, Y4, Y4
	VMAXPD	Y12, Y5, Y5
	VMAXPD	Y12, Y6, Y6
	VMAXPD	Y12, Y7, Y7
	VMOVUPD	Y0, (R8)
	VMOVUPD	Y1, 32(R8)
	VMOVUPD	Y2, (R8)(R9*1)
	VMOVUPD	Y3, 32(R8)(R9*1)
	VMOVUPD	Y4, (R8)(R9*2)
	VMOVUPD	Y5, 32(R8)(R9*2)
	LEAQ	(R8)(R9*2), R11
	VMOVUPD	Y6, (R11)(R9*1)
	VMOVUPD	Y7, 32(R11)(R9*1)
	LEAQ	(R8)(R9*4), R8
	ADDQ	$32, R12
	JMP	conv8f
conv8next:
	ADDQ	$64, CX
	ADDQ	$64, DI
	JMP	conv8

conv4:
	CMPQ	CX, SI
	JGE	convdone
	XORQ	R12, R12
	MOVQ	DI, R8
conv4f:
	CMPQ	R12, R10
	JGE	convdone
	VBROADCASTSD	(BX)(R12*1), Y0
	VBROADCASTSD	8(BX)(R12*1), Y2
	VBROADCASTSD	16(BX)(R12*1), Y4
	VBROADCASTSD	24(BX)(R12*1), Y6
	MOVQ	CX, R11
	LEAQ	(DX)(R12*1), R13
	MOVQ	rows+32(FP), AX
conv4i:
	TESTQ	AX, AX
	JZ	conv4store
	VMOVUPD	(R11), Y8
	VBROADCASTSD	(R13), Y10
	VMULPD	Y8, Y10, Y10
	VADDPD	Y10, Y0, Y0
	VBROADCASTSD	8(R13), Y10
	VMULPD	Y8, Y10, Y10
	VADDPD	Y10, Y2, Y2
	VBROADCASTSD	16(R13), Y10
	VMULPD	Y8, Y10, Y10
	VADDPD	Y10, Y4, Y4
	VBROADCASTSD	24(R13), Y10
	VMULPD	Y8, Y10, Y10
	VADDPD	Y10, Y6, Y6
	ADDQ	R9, R11
	ADDQ	R10, R13
	DECQ	AX
	JMP	conv4i
conv4store:
	VMAXPD	Y12, Y0, Y0
	VMAXPD	Y12, Y2, Y2
	VMAXPD	Y12, Y4, Y4
	VMAXPD	Y12, Y6, Y6
	VMOVUPD	Y0, (R8)
	VMOVUPD	Y2, (R8)(R9*1)
	VMOVUPD	Y4, (R8)(R9*2)
	LEAQ	(R8)(R9*2), R11
	VMOVUPD	Y6, (R11)(R9*1)
	LEAQ	(R8)(R9*4), R8
	ADDQ	$32, R12
	JMP	conv4f

convdone:
	VZEROUPPER
	RET

// func denseAVX(act, wT, bias, out *float64, flat, bp, cp int)
//
// The dense GEMM out (cp × bp) = bias + wTᵀ · act, act being flat × bp (one
// lane per sample) and wT flat × cp (wT[k·cp+c] = DenseW[c·flat+k]). bp must
// be a multiple of 4 and cp of 5. The micro-kernel covers 5 classes × 8
// samples (ten accumulators sharing two activation loads and five weight
// broadcasts); a 4-sample remainder runs 5 classes × 4 samples. Samples are
// the outer loop, so one activation column block stays cached while the
// class blocks stream over it.
//
// Registers: CX = &act[s], SI = &act[bp] (end), DI = &out[s], DX = wT,
// BX = bias, R9 = bp bytes, R10 = cp bytes, R12 = c bytes, R8 = &out[c·bp+s],
// R11/R13/AX = inner activation pointer, weight pointer and k countdown.
TEXT ·denseAVX(SB), NOSPLIT, $0-56
	MOVQ	act+0(FP), CX
	MOVQ	wT+8(FP), DX
	MOVQ	bias+16(FP), BX
	MOVQ	out+24(FP), DI
	MOVQ	bp+40(FP), R9
	MOVQ	cp+48(FP), R10
	SHLQ	$3, R9
	SHLQ	$3, R10
	LEAQ	(CX)(R9*1), SI

dense8:
	LEAQ	64(CX), AX
	CMPQ	AX, SI
	JGT	dense4
	XORQ	R12, R12
	MOVQ	DI, R8
dense8c:
	CMPQ	R12, R10
	JGE	dense8next
	VBROADCASTSD	(BX)(R12*1), Y0
	VMOVAPD	Y0, Y1
	VBROADCASTSD	8(BX)(R12*1), Y2
	VMOVAPD	Y2, Y3
	VBROADCASTSD	16(BX)(R12*1), Y4
	VMOVAPD	Y4, Y5
	VBROADCASTSD	24(BX)(R12*1), Y6
	VMOVAPD	Y6, Y7
	VBROADCASTSD	32(BX)(R12*1), Y8
	VMOVAPD	Y8, Y9
	MOVQ	CX, R11
	LEAQ	(DX)(R12*1), R13
	MOVQ	flat+32(FP), AX
dense8k:
	TESTQ	AX, AX
	JZ	dense8store
	VMOVUPD	(R11), Y10
	VMOVUPD	32(R11), Y11
	VBROADCASTSD	(R13), Y12
	VMULPD	Y10, Y12, Y13
	VADDPD	Y13, Y0, Y0
	VMULPD	Y11, Y12, Y12
	VADDPD	Y12, Y1, Y1
	VBROADCASTSD	8(R13), Y12
	VMULPD	Y10, Y12, Y13
	VADDPD	Y13, Y2, Y2
	VMULPD	Y11, Y12, Y12
	VADDPD	Y12, Y3, Y3
	VBROADCASTSD	16(R13), Y12
	VMULPD	Y10, Y12, Y13
	VADDPD	Y13, Y4, Y4
	VMULPD	Y11, Y12, Y12
	VADDPD	Y12, Y5, Y5
	VBROADCASTSD	24(R13), Y12
	VMULPD	Y10, Y12, Y13
	VADDPD	Y13, Y6, Y6
	VMULPD	Y11, Y12, Y12
	VADDPD	Y12, Y7, Y7
	VBROADCASTSD	32(R13), Y12
	VMULPD	Y10, Y12, Y13
	VADDPD	Y13, Y8, Y8
	VMULPD	Y11, Y12, Y12
	VADDPD	Y12, Y9, Y9
	ADDQ	R9, R11
	ADDQ	R10, R13
	DECQ	AX
	JMP	dense8k
dense8store:
	VMOVUPD	Y0, (R8)
	VMOVUPD	Y1, 32(R8)
	VMOVUPD	Y2, (R8)(R9*1)
	VMOVUPD	Y3, 32(R8)(R9*1)
	VMOVUPD	Y4, (R8)(R9*2)
	VMOVUPD	Y5, 32(R8)(R9*2)
	LEAQ	(R8)(R9*2), R11
	VMOVUPD	Y6, (R11)(R9*1)
	VMOVUPD	Y7, 32(R11)(R9*1)
	VMOVUPD	Y8, (R11)(R9*2)
	VMOVUPD	Y9, 32(R11)(R9*2)
	LEAQ	(R11)(R9*2), R8
	ADDQ	R9, R8
	ADDQ	$40, R12
	JMP	dense8c
dense8next:
	ADDQ	$64, CX
	ADDQ	$64, DI
	JMP	dense8

dense4:
	CMPQ	CX, SI
	JGE	densedone
	XORQ	R12, R12
	MOVQ	DI, R8
dense4c:
	CMPQ	R12, R10
	JGE	densedone
	VBROADCASTSD	(BX)(R12*1), Y0
	VBROADCASTSD	8(BX)(R12*1), Y2
	VBROADCASTSD	16(BX)(R12*1), Y4
	VBROADCASTSD	24(BX)(R12*1), Y6
	VBROADCASTSD	32(BX)(R12*1), Y8
	MOVQ	CX, R11
	LEAQ	(DX)(R12*1), R13
	MOVQ	flat+32(FP), AX
dense4k:
	TESTQ	AX, AX
	JZ	dense4store
	VMOVUPD	(R11), Y10
	VBROADCASTSD	(R13), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y0, Y0
	VBROADCASTSD	8(R13), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y2, Y2
	VBROADCASTSD	16(R13), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y4, Y4
	VBROADCASTSD	24(R13), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y6, Y6
	VBROADCASTSD	32(R13), Y12
	VMULPD	Y10, Y12, Y12
	VADDPD	Y12, Y8, Y8
	ADDQ	R9, R11
	ADDQ	R10, R13
	DECQ	AX
	JMP	dense4k
dense4store:
	VMOVUPD	Y0, (R8)
	VMOVUPD	Y2, (R8)(R9*1)
	VMOVUPD	Y4, (R8)(R9*2)
	LEAQ	(R8)(R9*2), R11
	VMOVUPD	Y6, (R11)(R9*1)
	VMOVUPD	Y8, (R11)(R9*2)
	LEAQ	(R11)(R9*2), R8
	ADDQ	R9, R8
	ADDQ	$40, R12
	JMP	dense4c

densedone:
	VZEROUPPER
	RET
