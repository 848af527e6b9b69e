#include "textflag.h"

// func hasFMA() bool
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 12 FMA, bit 27 OSXSAVE, bit 28 AVX.
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func kern8x4FMA(k int, a *float64, lda int, pack *float64, c *float64, ldc int, bias *[8]float64)
//
// Y0..Y7 hold the 4 panel columns of rows 0..7. Per l, each row's
// A value is broadcast and fused-multiply-added against the panel quad
// pack[4l:4l+4]: every output lane is bias + Σ a·b with one rounding
// per step in ascending l, the scalar micro-kernel's exact sequence.
TEXT ·kern8x4FMA(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), BX
	SHLQ $3, BX
	LEAQ (BX)(BX*2), DX
	LEAQ (SI)(BX*4), DI
	MOVQ pack+24(FP), R8
	MOVQ bias+48(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7

loop:
	VMOVUPD      (R8), Y8
	VBROADCASTSD (SI), Y9
	VFMADD231PD  Y8, Y9, Y0
	VBROADCASTSD (SI)(BX*1), Y10
	VFMADD231PD  Y8, Y10, Y1
	VBROADCASTSD (SI)(BX*2), Y11
	VFMADD231PD  Y8, Y11, Y2
	VBROADCASTSD (SI)(DX*1), Y12
	VFMADD231PD  Y8, Y12, Y3
	VBROADCASTSD (DI), Y9
	VFMADD231PD  Y8, Y9, Y4
	VBROADCASTSD (DI)(BX*1), Y10
	VFMADD231PD  Y8, Y10, Y5
	VBROADCASTSD (DI)(BX*2), Y11
	VFMADD231PD  Y8, Y11, Y6
	VBROADCASTSD (DI)(DX*1), Y12
	VFMADD231PD  Y8, Y12, Y7
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $32, R8
	DECQ         CX
	JNZ          loop

	MOVQ    c+32(FP), R9
	MOVQ    ldc+40(FP), R10
	SHLQ    $3, R10
	LEAQ    (R10)(R10*2), R11
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R9)(R10*1)
	VMOVUPD Y2, (R9)(R10*2)
	VMOVUPD Y3, (R9)(R11*1)
	LEAQ    (R9)(R10*4), R9
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, (R9)(R10*1)
	VMOVUPD Y6, (R9)(R10*2)
	VMOVUPD Y7, (R9)(R11*1)
	VZEROUPPER
	RET
