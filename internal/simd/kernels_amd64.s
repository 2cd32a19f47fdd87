//go:build amd64 && !race

#include "textflag.h"

// 8-lane AVX kernels. Every kernel multiplies with VMULPS and adds with
// VADDPS (AVX1 only, no FMA), keeps one accumulator per output element and
// walks the reduction in ascending order, so each lane computes exactly
// what the scalar Go kernel computes for that element. Operand order
// follows the Go source: products are weight·input (broadcast value as
// the first source) and sums are accumulator + product. The wrappers in
// simd.go check every length before these run.

// TILE_STEP adds one k step to the 4×8 tile: the panel row at bo(DX) times
// the broadcast A values at ao(SI), ao(R8), ao(R9), ao(R10), into the
// row accumulators Y0..Y3.
#define TILE_STEP(ao, bo) \
	VMOVUPS      bo(DX), Y4; \
	VBROADCASTSS ao(SI), Y5; \
	VMULPS       Y4, Y5, Y5; \
	VADDPS       Y5, Y0, Y0; \
	VBROADCASTSS ao(R8), Y6; \
	VMULPS       Y4, Y6, Y6; \
	VADDPS       Y6, Y1, Y1; \
	VBROADCASTSS ao(R9), Y7; \
	VMULPS       Y4, Y7, Y7; \
	VADDPS       Y7, Y2, Y2; \
	VBROADCASTSS ao(R10), Y8; \
	VMULPS       Y4, Y8, Y8; \
	VADDPS       Y8, Y3, Y3

// STORE_ROW writes accumulator acc to the 8 floats at addr, adding it to
// their current value when AX (accum) is non-zero.
#define STORE_ROW(acc, addr, tmp, lset, ldone) \
	TESTQ   AX, AX; \
	JZ      lset; \
	VMOVUPS addr, tmp; \
	VADDPS  acc, tmp, tmp; \
	VMOVUPS tmp, addr; \
	JMP     ldone; \
lset: \
	VMOVUPS acc, addr; \
ldone:

// func tile4x8AVX(c *float32, ldc int, a *float32, lda int, bp *float32, k int, accum bool)
TEXT ·tile4x8AVX(SB), NOSPLIT, $0-49
	MOVQ   c+0(FP), DI
	MOVQ   ldc+8(FP), BX
	MOVQ   a+16(FP), SI
	MOVQ   lda+24(FP), AX
	MOVQ   bp+32(FP), DX
	MOVQ   k+40(FP), CX
	SHLQ   $2, BX
	SHLQ   $2, AX
	LEAQ   (SI)(AX*1), R8
	LEAQ   (R8)(AX*1), R9
	LEAQ   (R9)(AX*1), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

tile_k4:
	CMPQ CX, $4
	JL   tile_k1
	TILE_STEP(0, 0)
	TILE_STEP(4, 32)
	TILE_STEP(8, 64)
	TILE_STEP(12, 96)
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $128, DX
	SUBQ $4, CX
	JMP  tile_k4

tile_k1:
	TESTQ CX, CX
	JZ    tile_store
	TILE_STEP(0, 0)
	ADDQ  $4, SI
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	ADDQ  $32, DX
	DECQ  CX
	JMP   tile_k1

tile_store:
	MOVBQZX accum+48(FP), AX
	LEAQ    (DI)(BX*2), R11
	STORE_ROW(Y0, (DI), Y4, tile_set0, tile_done0)
	STORE_ROW(Y1, (DI)(BX*1), Y5, tile_set1, tile_done1)
	STORE_ROW(Y2, (R11), Y6, tile_set2, tile_done2)
	STORE_ROW(Y3, (R11)(BX*1), Y7, tile_set3, tile_done3)
	VZEROUPPER
	RET

// func row1x8AVX(c, a, bp *float32, k int, accum bool)
TEXT ·row1x8AVX(SB), NOSPLIT, $0-33
	MOVQ   c+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   bp+16(FP), DX
	MOVQ   k+24(FP), CX
	VXORPS Y0, Y0, Y0

row_k1:
	TESTQ        CX, CX
	JZ           row_store
	VBROADCASTSS (SI), Y5
	VMULPS       (DX), Y5, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $32, DX
	DECQ         CX
	JMP          row_k1

row_store:
	MOVBQZX accum+32(FP), AX
	STORE_ROW(Y0, (DI), Y4, row_set, row_done)
	VZEROUPPER
	RET

// func axpyAVX(dst, src *float32, w float32, n int)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS w+16(FP), Y0
	MOVQ         n+24(FP), CX

axpy_32:
	CMPQ    CX, $32
	JL      axpy_8
	VMULPS  0(SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VMOVUPS 0(DI), Y5
	VMOVUPS 32(DI), Y6
	VMOVUPS 64(DI), Y7
	VMOVUPS 96(DI), Y8
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y5, 0(DI)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y7, 64(DI)
	VMOVUPS Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     axpy_32

axpy_8:
	CMPQ    CX, $8
	JL      axpy_1
	VMULPS  (SI), Y0, Y1
	VMOVUPS (DI), Y5
	VADDPS  Y1, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy_8

axpy_1:
	TESTQ  CX, CX
	JZ     axpy_done
	VMOVSS (SI), X1
	VMULSS X1, X0, X1
	VMOVSS (DI), X5
	VADDSS X1, X5, X5
	VMOVSS X5, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpy_1

axpy_done:
	VZEROUPPER
	RET

// Tap columns. A TapOp is three slice headers (72 bytes): Src at 0, W0 at
// 24, W1 at 48. TAP_PASS runs BODY for every (op, kx) pair in order, with
// CX = op.Src + R10 bytes (R10 = 4·(off+x)) + 4kx, DX = op.W0 + 4kx and
// BX = op.W1 + 4kx. The wrappers guarantee nops >= 1 and fx >= 1.
#define TAP_PASS(BODY, nops, fx, lop, lkx) \
	MOVQ SI, AX; \
	MOVQ nops, R11; \
lop: \
	MOVQ 0(AX), CX; \
	ADDQ R10, CX; \
	MOVQ 24(AX), DX; \
	MOVQ 48(AX), BX; \
	MOVQ fx, R12; \
lkx: \
	BODY; \
	ADDQ $4, CX; \
	ADDQ $4, DX; \
	ADDQ $4, BX; \
	DECQ R12; \
	JNZ  lkx; \
	ADDQ $72, AX; \
	DECQ R11; \
	JNZ  lop

// One-row bodies: 32, 16 or 8 columns in Y0..Y3 gain W0[kx]·Src[x+kx].
#define T1_4 \
	VBROADCASTSS (DX), Y8; \
	VMULPS       0(CX), Y8, Y9; \
	VADDPS       Y9, Y0, Y0; \
	VMULPS       32(CX), Y8, Y10; \
	VADDPS       Y10, Y1, Y1; \
	VMULPS       64(CX), Y8, Y11; \
	VADDPS       Y11, Y2, Y2; \
	VMULPS       96(CX), Y8, Y12; \
	VADDPS       Y12, Y3, Y3

#define T1_2 \
	VBROADCASTSS (DX), Y8; \
	VMULPS       0(CX), Y8, Y9; \
	VADDPS       Y9, Y0, Y0; \
	VMULPS       32(CX), Y8, Y10; \
	VADDPS       Y10, Y1, Y1

#define T1_1 \
	VBROADCASTSS (DX), Y8; \
	VMULPS       0(CX), Y8, Y9; \
	VADDPS       Y9, Y0, Y0

// func tapColumn1AVX(d0 *float32, ops *TapOp, nops, fx, off, n int)
TEXT ·tapColumn1AVX(SB), NOSPLIT, $0-48
	MOVQ d0+0(FP), DI
	MOVQ ops+8(FP), SI
	MOVQ off+32(FP), R10
	SHLQ $2, R10
	MOVQ n+40(FP), R13

t1_32:
	CMPQ    R13, $32
	JL      t1_16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	TAP_PASS(T1_4, nops+16(FP), fx+24(FP), t1_op32, t1_kx32)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $32, R13
	JMP     t1_32

t1_16:
	CMPQ    R13, $16
	JL      t1_8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	TAP_PASS(T1_2, nops+16(FP), fx+24(FP), t1_op16, t1_kx16)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $16, R13

t1_8:
	CMPQ    R13, $8
	JL      t1_done
	VMOVUPS 0(DI), Y0
	TAP_PASS(T1_1, nops+16(FP), fx+24(FP), t1_op8, t1_kx8)
	VMOVUPS Y0, 0(DI)

t1_done:
	VZEROUPPER
	RET

// Two-row bodies: each Src load feeds row 0 (Y0..Y3, W0) and row 1
// (Y4..Y7, W1).
#define T2_COL(so, acc0, acc1) \
	VMOVUPS so(CX), Y10; \
	VMULPS  Y10, Y8, Y11; \
	VADDPS  Y11, acc0, acc0; \
	VMULPS  Y10, Y9, Y12; \
	VADDPS  Y12, acc1, acc1

#define T2_W \
	VBROADCASTSS (DX), Y8; \
	VBROADCASTSS (BX), Y9

#define T2_4 \
	T2_W; \
	T2_COL(0, Y0, Y4); \
	T2_COL(32, Y1, Y5); \
	T2_COL(64, Y2, Y6); \
	T2_COL(96, Y3, Y7)

#define T2_2 \
	T2_W; \
	T2_COL(0, Y0, Y4); \
	T2_COL(32, Y1, Y5)

#define T2_1 \
	T2_W; \
	T2_COL(0, Y0, Y4)

// func tapColumn2AVX(d0, d1 *float32, ops *TapOp, nops, fx, off, n int)
TEXT ·tapColumn2AVX(SB), NOSPLIT, $0-56
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), R8
	MOVQ ops+16(FP), SI
	MOVQ off+40(FP), R10
	SHLQ $2, R10
	MOVQ n+48(FP), R13

t2_32:
	CMPQ    R13, $32
	JL      t2_16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 0(R8), Y4
	VMOVUPS 32(R8), Y5
	VMOVUPS 64(R8), Y6
	VMOVUPS 96(R8), Y7
	TAP_PASS(T2_4, nops+24(FP), fx+32(FP), t2_op32, t2_kx32)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 0(R8)
	VMOVUPS Y5, 32(R8)
	VMOVUPS Y6, 64(R8)
	VMOVUPS Y7, 96(R8)
	ADDQ    $128, DI
	ADDQ    $128, R8
	ADDQ    $128, R10
	SUBQ    $32, R13
	JMP     t2_32

t2_16:
	CMPQ    R13, $16
	JL      t2_8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 0(R8), Y4
	VMOVUPS 32(R8), Y5
	TAP_PASS(T2_2, nops+24(FP), fx+32(FP), t2_op16, t2_kx16)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y4, 0(R8)
	VMOVUPS Y5, 32(R8)
	ADDQ    $64, DI
	ADDQ    $64, R8
	ADDQ    $64, R10
	SUBQ    $16, R13

t2_8:
	CMPQ    R13, $8
	JL      t2_done
	VMOVUPS 0(DI), Y0
	VMOVUPS 0(R8), Y4
	TAP_PASS(T2_1, nops+24(FP), fx+32(FP), t2_op8, t2_kx8)
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y4, 0(R8)

t2_done:
	VZEROUPPER
	RET
