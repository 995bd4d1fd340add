// AVX kernels of the batch path. The contract they share with their pure-Go
// twins in kernels.go is the package comment's (nn.go); in instructions:
//
//   - one output, one chain: every dst element is a single accumulator lane,
//     seeded from its seed element and extended by one product per step in
//     ascending k. A ymm register holds 4 *independent* chains; tiling only
//     sets how many chains are in flight, never the order inside one.
//   - multiply, then add: VMULPD followed by VADDPD, two roundings, exactly
//     the scalar `z += a*m`. Never VFMADD.
//   - ReLU is VMAXPD(+0, z) with z as the second source operand, which
//     returns z itself for -0 and NaN — what `if z < 0 { z = 0 }` leaves.
//   - the ReLU derivative is a 0/1 *factor* (compare, AND with 1.0) that
//     multiplies gy, so a negative or non-finite gy keeps its sign/NaN in
//     the product; never a blend.

#include "textflag.h"

// laneMask<> + (4-n)*8 is a VMASKMOVPD mask enabling the first n lanes.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA, $64

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA, $8

// func hasAVXAsm() bool
//
// CPUID leaf 1 ECX: bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV xcr0 bits
// 2:1 confirm the OS actually saves ymm state. 0x18000000 = both CPUID bits.
TEXT ·hasAVXAsm(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  notavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  notavx
	MOVB $1, ret+0(FP)
	RET

notavx:
	MOVB $0, ret+0(FP)
	RET

// One k-step of a chain held in acc: acc += bcast * mem.
#define STEP(off, acc) \
	VMULPD off(BX), Y10, Y11 \
	VADDPD Y11, acc, acc

// func chainWideAVX(dst, seed, a, m *float64, rows, k, dstStride, seedStride, aStride, mStride, relu int)
//
// dst[r][c] = act(seed[r][c] + Σ_j a[r][j]·m[j][c]) for c in [0, 40): one
// row per tile, ten ymm accumulators (40 chains) in flight — five FP-add
// latencies' worth of independent work on two ports. Strides are in
// elements.
TEXT ·chainWideAVX(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ seed+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ dstStride+48(FP), R12
	MOVQ seedStride+56(FP), R13
	MOVQ aStride+64(FP), R11
	MOVQ mStride+72(FP), DX
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R11
	SHLQ $3, DX
	VXORPD Y15, Y15, Y15
	TESTQ R10, R10
	JEQ  wdone

wrow:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	VMOVUPD 128(R8), Y4
	VMOVUPD 160(R8), Y5
	VMOVUPD 192(R8), Y6
	VMOVUPD 224(R8), Y7
	VMOVUPD 256(R8), Y8
	VMOVUPD 288(R8), Y9
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ k+40(FP), CX
	TESTQ CX, CX
	JEQ  wact

wstep:
	VBROADCASTSD (AX), Y10
	STEP(0, Y0)
	STEP(32, Y1)
	STEP(64, Y2)
	STEP(96, Y3)
	STEP(128, Y4)
	STEP(160, Y5)
	STEP(192, Y6)
	STEP(224, Y7)
	STEP(256, Y8)
	STEP(288, Y9)
	ADDQ $8, AX
	ADDQ DX, BX
	DECQ CX
	JNE  wstep

wact:
	CMPQ relu+80(FP), $0
	JEQ  wstore
	VMAXPD Y0, Y15, Y0
	VMAXPD Y1, Y15, Y1
	VMAXPD Y2, Y15, Y2
	VMAXPD Y3, Y15, Y3
	VMAXPD Y4, Y15, Y4
	VMAXPD Y5, Y15, Y5
	VMAXPD Y6, Y15, Y6
	VMAXPD Y7, Y15, Y7
	VMAXPD Y8, Y15, Y8
	VMAXPD Y9, Y15, Y9

wstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	ADDQ R12, DI
	ADDQ R13, R8
	ADDQ R11, SI
	DECQ R10
	JNE  wrow

wdone:
	VZEROUPPER
	RET

// One k-step of one row of a narrow tile: both column vectors (already in
// Y8/Y9) times the row's broadcast a[r][j].
#define NSTEP(aaddr, acc0, acc1) \
	VBROADCASTSD aaddr, Y10 \
	VMULPD Y8, Y10, Y11 \
	VADDPD Y11, acc0, acc0 \
	VMULPD Y9, Y10, Y11 \
	VADDPD Y11, acc1, acc1

// func chainNarrowAVX(dst, seed, a, m *float64, rows, k, cols, dstStride, seedStride, aStride, mStride, relu int)
//
// The same chains for 1 <= cols <= 8: two (lane-masked) column vectors,
// blocked four rows deep so eight accumulators are in flight where a single
// row would run two. This is the in = 8 weight-gradient shape (four output
// rows share each x load), the 5-wide actor head and every ragged column
// tail; leftover rows run one at a time. Masked lanes are never loaded
// (they read as zero) and never stored.
TEXT ·chainNarrowAVX(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ seed+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ m+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ dstStride+56(FP), R12
	MOVQ seedStride+64(FP), R13
	MOVQ aStride+72(FP), R11
	MOVQ mStride+80(FP), DX
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R11
	SHLQ $3, DX
	LEAQ (R11)(R11*2), R14   // 3 * aStride bytes

	// Y12 / Y13 = lane masks of the first / second column vector.
	MOVQ cols+48(FP), AX
	MOVQ $4, BX
	CMPQ AX, $4
	CMOVQLT AX, BX           // n0 = min(cols, 4)
	SUBQ BX, AX              // n1 = cols - n0
	LEAQ laneMask<>(SB), CX
	NEGQ BX
	VMOVDQU 32(CX)(BX*8), Y12
	NEGQ AX
	VMOVDQU 32(CX)(AX*8), Y13
	VXORPD Y15, Y15, Y15

n4:
	CMPQ R10, $4
	JLT  n1
	MOVQ R8, BX
	VMASKMOVPD (BX), Y12, Y0
	VMASKMOVPD 32(BX), Y13, Y1
	ADDQ R13, BX
	VMASKMOVPD (BX), Y12, Y2
	VMASKMOVPD 32(BX), Y13, Y3
	ADDQ R13, BX
	VMASKMOVPD (BX), Y12, Y4
	VMASKMOVPD 32(BX), Y13, Y5
	ADDQ R13, BX
	VMASKMOVPD (BX), Y12, Y6
	VMASKMOVPD 32(BX), Y13, Y7
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ k+40(FP), CX
	TESTQ CX, CX
	JEQ  n4act

n4step:
	VMASKMOVPD (BX), Y12, Y8
	VMASKMOVPD 32(BX), Y13, Y9
	NSTEP((AX), Y0, Y1)
	NSTEP((AX)(R11*1), Y2, Y3)
	NSTEP((AX)(R11*2), Y4, Y5)
	NSTEP((AX)(R14*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ DX, BX
	DECQ CX
	JNE  n4step

n4act:
	CMPQ relu+88(FP), $0
	JEQ  n4store
	VMAXPD Y0, Y15, Y0
	VMAXPD Y1, Y15, Y1
	VMAXPD Y2, Y15, Y2
	VMAXPD Y3, Y15, Y3
	VMAXPD Y4, Y15, Y4
	VMAXPD Y5, Y15, Y5
	VMAXPD Y6, Y15, Y6
	VMAXPD Y7, Y15, Y7

n4store:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	ADDQ R12, DI
	VMASKMOVPD Y2, Y12, (DI)
	VMASKMOVPD Y3, Y13, 32(DI)
	ADDQ R12, DI
	VMASKMOVPD Y4, Y12, (DI)
	VMASKMOVPD Y5, Y13, 32(DI)
	ADDQ R12, DI
	VMASKMOVPD Y6, Y12, (DI)
	VMASKMOVPD Y7, Y13, 32(DI)
	ADDQ R12, DI
	LEAQ (R8)(R13*4), R8
	LEAQ (SI)(R11*4), SI
	SUBQ $4, R10
	JMP  n4

n1:
	TESTQ R10, R10
	JEQ  ndone
	VMASKMOVPD (R8), Y12, Y0
	VMASKMOVPD 32(R8), Y13, Y1
	MOVQ SI, AX
	MOVQ R9, BX
	MOVQ k+40(FP), CX
	TESTQ CX, CX
	JEQ  n1act

n1step:
	VMASKMOVPD (BX), Y12, Y8
	VMASKMOVPD 32(BX), Y13, Y9
	NSTEP((AX), Y0, Y1)
	ADDQ $8, AX
	ADDQ DX, BX
	DECQ CX
	JNE  n1step

n1act:
	CMPQ relu+88(FP), $0
	JEQ  n1store
	VMAXPD Y0, Y15, Y0
	VMAXPD Y1, Y15, Y1

n1store:
	VMASKMOVPD Y0, Y12, (DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	ADDQ R12, DI
	ADDQ R13, R8
	ADDQ R11, SI
	DECQ R10
	JMP  n1

ndone:
	VZEROUPPER
	RET

// func gzAVX(gy, y, gz, gzT *float64, rows, cols, stride, tStride, mode int)
//
// gz[b][o] = gy[b][o] · f(y[b][o]) over the rows×cols corner (both multiples
// of 4) of three dense matrices with row stride `stride`, written in one
// sweep to gz (sample-major, same layout) and to gzT (output-major,
// gzT[o*tStride + b]) — each 4×4 tile is transposed in registers so both
// layouts get full-vector stores. mode is the layer's Activation: f = 1
// (Linear), the 0/1 factor `y > 0` (ReLU), or 1 − y·y (Tanh). The caller
// runs the ragged edges through the Go twin.
TEXT ·gzAVX(SB), NOSPLIT, $8-72
	MOVQ gy+0(FP), R8
	MOVQ y+8(FP), R9
	MOVQ gz+16(FP), R10
	MOVQ gzT+24(FP), DI
	MOVQ stride+48(FP), R11
	MOVQ tStride+56(FP), R12
	SHLQ $3, R11
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13   // 3 * tStride bytes
	VBROADCASTSD one<>(SB), Y14
	VXORPD Y15, Y15, Y15
	MOVQ rows+32(FP), SI
	MOVQ SI, left-8(SP)      // rows left
	XORQ R14, R14            // byte offset of the tile row's first element

grow:
	CMPQ left-8(SP), $4
	JLT  gdone
	MOVQ R14, AX             // row 0
	LEAQ (AX)(R11*1), BX     // row 1
	LEAQ (AX)(R11*2), CX     // row 2
	LEAQ (BX)(R11*2), DX     // row 3
	MOVQ DI, R15             // &gzT[c*tStride + b], c = 0
	MOVQ cols+40(FP), SI     // cols left

gcol:
	CMPQ SI, $4
	JLT  gnext
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD (R8)(BX*1), Y1
	VMOVUPD (R8)(CX*1), Y2
	VMOVUPD (R8)(DX*1), Y3
	VMOVUPD (R9)(AX*1), Y4
	VMOVUPD (R9)(BX*1), Y5
	VMOVUPD (R9)(CX*1), Y6
	VMOVUPD (R9)(DX*1), Y7
	CMPQ mode+64(FP), $1
	JEQ  grelu
	JGT  gtanh
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VMOVAPD Y14, Y6
	VMOVAPD Y14, Y7
	JMP  gmul

grelu:
	VCMPPD $0x11, Y4, Y15, Y4 // 0 < y, ordered: all-ones or zero
	VCMPPD $0x11, Y5, Y15, Y5
	VCMPPD $0x11, Y6, Y15, Y6
	VCMPPD $0x11, Y7, Y15, Y7
	VANDPD Y14, Y4, Y4        // 1.0 or +0
	VANDPD Y14, Y5, Y5
	VANDPD Y14, Y6, Y6
	VANDPD Y14, Y7, Y7
	JMP  gmul

gtanh:
	VMULPD Y4, Y4, Y4
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VSUBPD Y4, Y14, Y4        // 1 - y*y
	VSUBPD Y5, Y14, Y5
	VSUBPD Y6, Y14, Y6
	VSUBPD Y7, Y14, Y7

gmul:
	VMULPD Y4, Y0, Y0
	VMULPD Y5, Y1, Y1
	VMULPD Y6, Y2, Y2
	VMULPD Y7, Y3, Y3
	VMOVUPD Y0, (R10)(AX*1)
	VMOVUPD Y1, (R10)(BX*1)
	VMOVUPD Y2, (R10)(CX*1)
	VMOVUPD Y3, (R10)(DX*1)
	VUNPCKLPD Y1, Y0, Y4      // r0.0 r1.0 r0.2 r1.2
	VUNPCKHPD Y1, Y0, Y5      // r0.1 r1.1 r0.3 r1.3
	VUNPCKLPD Y3, Y2, Y6      // r2.0 r3.0 r2.2 r3.2
	VUNPCKHPD Y3, Y2, Y7      // r2.1 r3.1 r2.3 r3.3
	VPERM2F128 $0x20, Y6, Y4, Y0 // column 0 of the tile: rows 0..3
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD Y0, (R15)
	VMOVUPD Y1, (R15)(R12*1)
	VMOVUPD Y2, (R15)(R12*2)
	VMOVUPD Y3, (R15)(R13*1)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	LEAQ (R15)(R12*4), R15
	SUBQ $4, SI
	JMP  gcol

gnext:
	LEAQ (R14)(R11*4), R14
	ADDQ $32, DI
	SUBQ $4, left-8(SP)
	JMP  grow

gdone:
	VZEROUPPER
	RET
