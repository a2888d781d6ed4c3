#include "textflag.h"

// AVX2 twins of axpy1, the expBounded loop of ExpRowMass and the tiles of
// MatMulPrefixInto. Every lane performs the Go kernel's multiplies
// and adds one for one, in the Go expression's association order and
// without FMA, so each stored element and the row mass carry exactly the
// bits the Go loops produce.

// Each constant is four copies wide so it can feed a 256-bit operand
// straight from memory.
DATA expAbsMask<>+0(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+8(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+16(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL expAbsMask<>(SB), RODATA|NOPTR, $32

DATA expSafe<>+0(SB)/8, $0x4085e00000000000
DATA expSafe<>+8(SB)/8, $0x4085e00000000000
DATA expSafe<>+16(SB)/8, $0x4085e00000000000
DATA expSafe<>+24(SB)/8, $0x4085e00000000000
GLOBL expSafe<>(SB), RODATA|NOPTR, $32

DATA expLog2E<>+0(SB)/8, $0x3ff71547652b82fe
DATA expLog2E<>+8(SB)/8, $0x3ff71547652b82fe
DATA expLog2E<>+16(SB)/8, $0x3ff71547652b82fe
DATA expLog2E<>+24(SB)/8, $0x3ff71547652b82fe
GLOBL expLog2E<>(SB), RODATA|NOPTR, $32

DATA expShifter<>+0(SB)/8, $0x4338000000000000
DATA expShifter<>+8(SB)/8, $0x4338000000000000
DATA expShifter<>+16(SB)/8, $0x4338000000000000
DATA expShifter<>+24(SB)/8, $0x4338000000000000
GLOBL expShifter<>(SB), RODATA|NOPTR, $32

DATA expLn2Hi<>+0(SB)/8, $0x3fe62e42fee00000
DATA expLn2Hi<>+8(SB)/8, $0x3fe62e42fee00000
DATA expLn2Hi<>+16(SB)/8, $0x3fe62e42fee00000
DATA expLn2Hi<>+24(SB)/8, $0x3fe62e42fee00000
GLOBL expLn2Hi<>(SB), RODATA|NOPTR, $32

DATA expLn2Lo<>+0(SB)/8, $0x3dea39ef35793c76
DATA expLn2Lo<>+8(SB)/8, $0x3dea39ef35793c76
DATA expLn2Lo<>+16(SB)/8, $0x3dea39ef35793c76
DATA expLn2Lo<>+24(SB)/8, $0x3dea39ef35793c76
GLOBL expLn2Lo<>(SB), RODATA|NOPTR, $32

DATA expOne<>+0(SB)/8, $0x3ff0000000000000
DATA expOne<>+8(SB)/8, $0x3ff0000000000000
DATA expOne<>+16(SB)/8, $0x3ff0000000000000
DATA expOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL expOne<>(SB), RODATA|NOPTR, $32

DATA exp2C<>+0(SB)/8, $0x3fe0000000000000
DATA exp2C<>+8(SB)/8, $0x3fe0000000000000
DATA exp2C<>+16(SB)/8, $0x3fe0000000000000
DATA exp2C<>+24(SB)/8, $0x3fe0000000000000
GLOBL exp2C<>(SB), RODATA|NOPTR, $32

DATA exp3C<>+0(SB)/8, $0x3fc5555555555555
DATA exp3C<>+8(SB)/8, $0x3fc5555555555555
DATA exp3C<>+16(SB)/8, $0x3fc5555555555555
DATA exp3C<>+24(SB)/8, $0x3fc5555555555555
GLOBL exp3C<>(SB), RODATA|NOPTR, $32

DATA exp4C<>+0(SB)/8, $0x3fa5555555555555
DATA exp4C<>+8(SB)/8, $0x3fa5555555555555
DATA exp4C<>+16(SB)/8, $0x3fa5555555555555
DATA exp4C<>+24(SB)/8, $0x3fa5555555555555
GLOBL exp4C<>(SB), RODATA|NOPTR, $32

DATA exp5C<>+0(SB)/8, $0x3f81111111111111
DATA exp5C<>+8(SB)/8, $0x3f81111111111111
DATA exp5C<>+16(SB)/8, $0x3f81111111111111
DATA exp5C<>+24(SB)/8, $0x3f81111111111111
GLOBL exp5C<>(SB), RODATA|NOPTR, $32

DATA exp6C<>+0(SB)/8, $0x3f56c16c16c16c17
DATA exp6C<>+8(SB)/8, $0x3f56c16c16c16c17
DATA exp6C<>+16(SB)/8, $0x3f56c16c16c16c17
DATA exp6C<>+24(SB)/8, $0x3f56c16c16c16c17
GLOBL exp6C<>(SB), RODATA|NOPTR, $32

DATA exp7C<>+0(SB)/8, $0x3f2a01a01a01a01a
DATA exp7C<>+8(SB)/8, $0x3f2a01a01a01a01a
DATA exp7C<>+16(SB)/8, $0x3f2a01a01a01a01a
DATA exp7C<>+24(SB)/8, $0x3f2a01a01a01a01a
GLOBL exp7C<>(SB), RODATA|NOPTR, $32

DATA exp8C<>+0(SB)/8, $0x3efa01a01a01a01a
DATA exp8C<>+8(SB)/8, $0x3efa01a01a01a01a
DATA exp8C<>+16(SB)/8, $0x3efa01a01a01a01a
DATA exp8C<>+24(SB)/8, $0x3efa01a01a01a01a
GLOBL exp8C<>(SB), RODATA|NOPTR, $32

DATA exp9C<>+0(SB)/8, $0x3ec71de3a556c734
DATA exp9C<>+8(SB)/8, $0x3ec71de3a556c734
DATA exp9C<>+16(SB)/8, $0x3ec71de3a556c734
DATA exp9C<>+24(SB)/8, $0x3ec71de3a556c734
GLOBL exp9C<>(SB), RODATA|NOPTR, $32

DATA exp10C<>+0(SB)/8, $0x3e927e4fb7789f5c
DATA exp10C<>+8(SB)/8, $0x3e927e4fb7789f5c
DATA exp10C<>+16(SB)/8, $0x3e927e4fb7789f5c
DATA exp10C<>+24(SB)/8, $0x3e927e4fb7789f5c
GLOBL exp10C<>(SB), RODATA|NOPTR, $32

DATA expBias<>+0(SB)/8, $0x00000000000003ff
DATA expBias<>+8(SB)/8, $0x00000000000003ff
DATA expBias<>+16(SB)/8, $0x00000000000003ff
DATA expBias<>+24(SB)/8, $0x00000000000003ff
GLOBL expBias<>(SB), RODATA|NOPTR, $32

// laneMask<>+8·(4−t) is the VMASKMOVPD mask selecting the first t of four
// elements, for unit tails of t = 1..3.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpy1AVX2(dst, b []float64, v float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ b_base+24(FP), R8
	MOVQ b_len+32(FP), DX
	VBROADCASTSD v+48(FP), Y0
	XORQ CX, CX

axpy1by8:
	LEAQ 8(CX), AX
	CMPQ AX, DX
	JGT  axpy1by4
	VMULPD (R8)(CX*8), Y0, Y4
	VMULPD 32(R8)(CX*8), Y0, Y5
	VADDPD (DI)(CX*8), Y4, Y4
	VADDPD 32(DI)(CX*8), Y5, Y5
	VMOVUPD Y4, (DI)(CX*8)
	VMOVUPD Y5, 32(DI)(CX*8)
	MOVQ AX, CX
	JMP  axpy1by8

axpy1by4:
	LEAQ 4(CX), AX
	CMPQ AX, DX
	JGT  axpy1tail
	VMULPD (R8)(CX*8), Y0, Y4
	VADDPD (DI)(CX*8), Y4, Y4
	VMOVUPD Y4, (DI)(CX*8)
	MOVQ AX, CX

axpy1tail:
	CMPQ CX, DX
	JGE  axpy1done
	VMULSD (R8)(CX*8), X0, X4
	VADDSD (DI)(CX*8), X4, X4
	VMOVSD X4, (DI)(CX*8)
	INCQ CX
	JMP  axpy1tail

axpy1done:
	VZEROUPPER
	RET

// func expRowMassAVX2(dst, src []float64) (mass float64, n int)
//
// Four entries per step, in index order: a step whose entries are not all
// within ±700 (or holds a NaN) stops the loop before anything of it is
// stored, and n reports where, so the caller's Go loop resumes there with
// the mass so far.
TEXT ·expRowMassAVX2(SB), NOSPLIT, $0-64
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), DX
	XORQ   CX, CX
	VXORPD X10, X10, X10

expstep:
	LEAQ      4(CX), AX
	CMPQ      AX, DX
	JGT       expdone
	VMOVUPD   (SI)(CX*8), Y0
	VANDPD    expAbsMask<>(SB), Y0, Y1
	VCMPPD    $0x12, expSafe<>(SB), Y1, Y1 // |x| ≤ 700, false on NaN
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       expdone

	// kf = (x·log2e + shifter) − shifter; Y1 keeps the shifted sum, whose
	// low mantissa bits hold k = round(x/ln2).
	VMULPD expLog2E<>(SB), Y0, Y1
	VADDPD expShifter<>(SB), Y1, Y1
	VSUBPD expShifter<>(SB), Y1, Y2

	// r = (x − kf·ln2hi) − kf·ln2lo, r2 = r·r, r4 = r2·r2
	VMULPD expLn2Hi<>(SB), Y2, Y3
	VSUBPD Y3, Y0, Y3
	VMULPD expLn2Lo<>(SB), Y2, Y4
	VSUBPD Y4, Y3, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// g0 = (1 + r) + (c2 + c3·r)·r2
	VADDPD expOne<>(SB), Y3, Y6
	VMULPD exp3C<>(SB), Y3, Y7
	VADDPD exp2C<>(SB), Y7, Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y6, Y6

	// g1 = (c4 + c5·r) + (c6 + c7·r)·r2
	VMULPD exp5C<>(SB), Y3, Y7
	VADDPD exp4C<>(SB), Y7, Y7
	VMULPD exp7C<>(SB), Y3, Y8
	VADDPD exp6C<>(SB), Y8, Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y7, Y7

	// g2 = (c8 + c9·r) + c10·r2
	VMULPD exp9C<>(SB), Y3, Y8
	VADDPD exp8C<>(SB), Y8, Y8
	VMULPD exp10C<>(SB), Y4, Y9
	VADDPD Y9, Y8, Y8

	// p = g0 + (g1 + g2·r4)·r4
	VMULPD Y5, Y8, Y8
	VADDPD Y8, Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD Y7, Y6, Y6

	// e = p·2^k, with the exponent field (k + 1023) << 52 built from the
	// shifted sum's low bits.
	VPADDQ  expBias<>(SB), Y1, Y1
	VPSLLQ  $52, Y1, Y1
	VMULPD  Y1, Y6, Y6
	VMOVUPD Y6, (DI)(CX*8)

	// mass += e0; mass += e1; mass += e2; mass += e3
	VADDSD       X6, X10, X10
	VUNPCKHPD    X6, X6, X7
	VADDSD       X7, X10, X10
	VEXTRACTF128 $1, Y6, X7
	VADDSD       X7, X10, X10
	VUNPCKHPD    X7, X7, X7
	VADDSD       X7, X10, X10

	MOVQ AX, CX
	JMP  expstep

expdone:
	VZEROUPPER
	VMOVSD X10, mass+48(FP)
	MOVQ   CX, n+56(FP)
	RET

// The prefix-matmul tiles keep one accumulator per (lane, four units) and
// add a[lane][k]·w[k][unit] to it for k = 0, 1, …, K−1 from +0, K being the
// longest prefix among the tile's units: a sequential sum per element, as
// in matMulPrefixGo. Vectorizing across lanes and units, never within a
// sum, is what keeps the bits equal. Unit tails of 1–3 load W and store dst
// through the laneMask in Y15, so no tile touches memory past its last
// unit.

// LANE(src, acc, tmp) adds the broadcast activation at src times the W
// segment in Y8 to acc.
#define LANE(src, acc, tmp) \
	VBROADCASTSD src, tmp;  \
	VMULPD       Y8, tmp, tmp; \
	VADDPD       tmp, acc, acc

// LANES8 runs LANE for the eight lanes whose k-th activations sit at
// (AX), (AX)+stride, (AX)+2·stride, (AX)+3·stride and the same from DX,
// stride being R10 and 3·stride R12.
#define LANES8 \
	LANE((AX), Y0, Y9);         \
	LANE((AX)(R10*1), Y1, Y10); \
	LANE((AX)(R10*2), Y2, Y11); \
	LANE((AX)(R12*1), Y3, Y12); \
	LANE((DX), Y4, Y13);        \
	LANE((DX)(R10*1), Y5, Y14); \
	LANE((DX)(R10*2), Y6, Y9);  \
	LANE((DX)(R12*1), Y7, Y10)

#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// LANE8START points AX at the first activation of lanes 0–3, DX at that
// of lanes 4–7 and R14 at the tile's W segment in row 0.
#define LANE8START \
	MOVQ SI, AX;            \
	LEAQ (SI)(R10*4), DX;   \
	MOVQ R8, R14

// LANE8NEXT steps the activation pointers and the W row to the next k.
#define LANE8NEXT \
	ADDQ $8, AX; \
	ADDQ $8, DX; \
	ADDQ R9, R14

// func laneTile8AVX2(dst []float64, dstStride int, a []float64, aStride int, w []float64, wStride int, pre []int)
//
// Eight lanes × len(pre) units: dst row l is dst[l·dstStride:], activation
// row l is a[l·aStride:], and unit j reads w[k·wStride+j] for k < pre[j].
TEXT ·laneTile8AVX2(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ dstStride+24(FP), R11
	SHLQ $3, R11
	MOVQ a_base+32(FP), SI
	MOVQ aStride+56(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R12
	MOVQ w_base+64(FP), R8
	MOVQ wStride+88(FP), R9
	SHLQ $3, R9
	MOVQ pre_base+96(FP), BX
	MOVQ pre_len+104(FP), R13

lt8tile:
	CMPQ R13, $4
	JLT  lt8tail
	MOVQ 24(BX), CX
	ZERO8
	LANE8START
	TESTQ CX, CX
	JZ    lt8store

lt8k:
	VMOVUPD (R14), Y8
	LANES8
	LANE8NEXT
	DECQ CX
	JNZ  lt8k

lt8store:
	MOVQ    DI, AX
	LEAQ    (R11)(R11*2), DX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R11*1)
	VMOVUPD Y2, (AX)(R11*2)
	VMOVUPD Y3, (AX)(DX*1)
	LEAQ    (AX)(R11*4), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R11*1)
	VMOVUPD Y6, (AX)(R11*2)
	VMOVUPD Y7, (AX)(DX*1)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, BX
	SUBQ    $4, R13
	JMP     lt8tile

lt8tail:
	TESTQ   R13, R13
	JZ      lt8done
	MOVQ    -8(BX)(R13*8), CX
	MOVQ    $4, AX
	SUBQ    R13, AX
	LEAQ    laneMask<>(SB), DX
	VMOVUPD (DX)(AX*8), Y15
	ZERO8
	LANE8START
	TESTQ   CX, CX
	JZ      lt8mstore

lt8mk:
	VMASKMOVPD (R14), Y15, Y8
	LANES8
	LANE8NEXT
	DECQ CX
	JNZ  lt8mk

lt8mstore:
	MOVQ       DI, AX
	LEAQ       (R11)(R11*2), DX
	VMASKMOVPD Y0, Y15, (AX)
	VMASKMOVPD Y1, Y15, (AX)(R11*1)
	VMASKMOVPD Y2, Y15, (AX)(R11*2)
	VMASKMOVPD Y3, Y15, (AX)(DX*1)
	LEAQ       (AX)(R11*4), AX
	VMASKMOVPD Y4, Y15, (AX)
	VMASKMOVPD Y5, Y15, (AX)(R11*1)
	VMASKMOVPD Y6, Y15, (AX)(R11*2)
	VMASKMOVPD Y7, Y15, (AX)(DX*1)

lt8done:
	VZEROUPPER
	RET

// func laneTile1AVX2(dst, a, w []float64, wStride int, pre []int)
//
// One lane × len(pre) units, 16 units per tile, then 4, then a masked
// tail.
TEXT ·laneTile1AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ w_base+48(FP), R8
	MOVQ wStride+72(FP), R9
	SHLQ $3, R9
	MOVQ pre_base+80(FP), BX
	MOVQ pre_len+88(FP), R13

lt1by16:
	CMPQ   R13, $16
	JLT    lt1by4
	MOVQ   120(BX), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   R8, R14
	TESTQ  CX, CX
	JZ     lt1store16

lt1k16:
	VBROADCASTSD (AX), Y8
	VMULPD       (R14), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R14), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R14), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R14), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $8, AX
	ADDQ         R9, R14
	DECQ         CX
	JNZ          lt1k16

lt1store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	ADDQ    $128, BX
	SUBQ    $16, R13
	JMP     lt1by16

lt1by4:
	CMPQ   R13, $4
	JLT    lt1tail
	MOVQ   24(BX), CX
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R8, R14
	TESTQ  CX, CX
	JZ     lt1store4

lt1k4:
	VBROADCASTSD (AX), Y8
	VMULPD       (R14), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $8, AX
	ADDQ         R9, R14
	DECQ         CX
	JNZ          lt1k4

lt1store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, BX
	SUBQ    $4, R13
	JMP     lt1by4

lt1tail:
	TESTQ   R13, R13
	JZ      lt1done
	MOVQ    -8(BX)(R13*8), CX
	MOVQ    $4, AX
	SUBQ    R13, AX
	LEAQ    laneMask<>(SB), DX
	VMOVUPD (DX)(AX*8), Y15
	VXORPD  Y0, Y0, Y0
	MOVQ    SI, AX
	MOVQ    R8, R14
	TESTQ   CX, CX
	JZ      lt1mstore

lt1mk:
	VMASKMOVPD   (R14), Y15, Y9
	VBROADCASTSD (AX), Y8
	VMULPD       Y9, Y8, Y8
	VADDPD       Y8, Y0, Y0
	ADDQ         $8, AX
	ADDQ         R9, R14
	DECQ         CX
	JNZ          lt1mk

lt1mstore:
	VMASKMOVPD Y0, Y15, (DI)

lt1done:
	VZEROUPPER
	RET
