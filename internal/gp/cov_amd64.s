#include "textflag.h"

// Vector bodies of Family.cov and of fillSqDist's (2, 3) branch.
//
// Every lane must equal the scalar Go loop bit for bit. The family steps
// run in the order the Go formula evaluates them, and EXP4 copies
// math.Exp's amd64 FMA sequence (label avxfma in the standard library's
// exp_amd64.s) instruction for instruction: the same constants, the same
// rounding points, FMA exactly where that sequence fuses and nowhere else.
// The sequence is valid only for arguments in [−708, 0], where archExp
// takes none of its not-finite, overflow, underflow or denormal branches,
// so covAVX2 stops at the first block with a lane outside that range
// (NaN included) and returns how many elements it set; Family.cov hands
// that block to the scalar loop. No body loads or stores past the whole
// 4-lane blocks of its slice.

// Each constant is stored four times, one ymm load.
#define CONST4(off, v) \
	DATA covconst<>+(off)(SB)/8, v; \
	DATA covconst<>+(off+8)(SB)/8, v; \
	DATA covconst<>+(off+16)(SB)/8, v; \
	DATA covconst<>+(off+24)(SB)/8, v

// exp_amd64.s's constants, written as it writes them.
CONST4(0, $1.4426950408889634073599246810018920)                   // LOG2E
CONST4(32, $0.69314718055966295651160180568695068359375)           // LN2U
CONST4(64, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
CONST4(96, $0.0625)
CONST4(128, $2.4801587301587301587e-5)
CONST4(160, $1.9841269841269841270e-4)
CONST4(192, $1.3888888888888888889e-3)
CONST4(224, $8.3333333333333333333e-3)
CONST4(256, $4.1666666666666666667e-2)
CONST4(288, $1.6666666666666666667e-1)
CONST4(320, $0.5)
CONST4(352, $1.0)
CONST4(384, $2.0)
// The families' own constants and the range test.
CONST4(416, $3.0)
CONST4(448, $5.0)
CONST4(480, $-0.5)
CONST4(512, $-708.0)
CONST4(544, $0x8000000000000000) // sign bit
CONST4(576, $0x3FF)              // exponent bias
GLOBL covconst<>(SB), RODATA|NOPTR, $608

#define LOG2E covconst<>+0(SB)
#define LN2U covconst<>+32(SB)
#define LN2L covconst<>+64(SB)
#define SIXTEENTH covconst<>+96(SB)
#define C64 covconst<>+128(SB)
#define C56 covconst<>+160(SB)
#define C48 covconst<>+192(SB)
#define C40 covconst<>+224(SB)
#define C32 covconst<>+256(SB)
#define C24 covconst<>+288(SB)
#define HALF covconst<>+320(SB)
#define ONE covconst<>+352(SB)
#define TWO covconst<>+384(SB)
#define THREE covconst<>+416(SB)
#define FIVE covconst<>+448(SB)
#define MHALF covconst<>+480(SB)
#define EXPMIN covconst<>+512(SB)
#define SIGN covconst<>+544(SB)
#define BIAS covconst<>+576(SB)

// Comparison predicates: ordered and quiet, so a NaN lane compares false.
#define GE_OQ $0x1D
#define LE_OQ $0x12

// EXP4 sets Y0 = math.Exp(Y0) per lane, clobbering Y1, Y2 and Y3. The
// steps are archExp's from its LOG2E multiply on: k = round(x·LOG2E)
// under MXCSR, two fused reductions, the scaled Taylor polynomial, four
// squarings (the last fused with the +1), and the product with 2^k.
#define EXP4 \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      C64, Y1; \
	VFMADD213PD  C56, Y0, Y1; \
	VFMADD213PD  C48, Y0, Y1; \
	VFMADD213PD  C40, Y0, Y1; \
	VFMADD213PD  C32, Y0, Y1; \
	VFMADD213PD  C24, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPMOVSXDQ    X2, Y3; \
	VPADDQ       BIAS, Y3, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y0, Y0

// INRANGE4 jumps to stop unless every lane of Y0 lies in [−708, 0].
#define INRANGE4(stop) \
	VCMPPD    GE_OQ, EXPMIN, Y0, Y9; \
	VXORPD    Y10, Y10, Y10; \
	VCMPPD    LE_OQ, Y10, Y0, Y10; \
	VANDPD    Y10, Y9, Y9; \
	VMOVMSKPD Y9, AX; \
	CMPQ      AX, $0x0F; \
	JNE       stop

// func covAVX2(f Family, d2s []float64) int
TEXT ·covAVX2(SB), NOSPLIT, $0-40
	MOVQ f+0(FP), R8
	MOVQ d2s_base+8(FP), SI
	MOVQ d2s_len+16(FP), DX
	ANDQ $~3, DX                  // end of the whole 4-lane blocks
	XORQ BX, BX
	CMPQ R8, $1
	JEQ  m52loop4
	CMPQ R8, $0
	JNE  rbfloop4                 // covScalar's default case

m32loop4: // (1 + d)·exp(−d), d = √(3·d²)
	CMPQ    BX, DX
	JGE     done4
	VMOVUPD (SI)(BX*8), Y4
	VMULPD  THREE, Y4, Y5
	VSQRTPD Y5, Y5
	VXORPD  SIGN, Y5, Y0
	INRANGE4(done4)
	EXP4
	VADDPD  ONE, Y5, Y5
	VMULPD  Y0, Y5, Y0
	VMOVUPD Y0, (SI)(BX*8)
	ADDQ    $4, BX
	JMP     m32loop4

m52loop4: // ((1 + d) + s/3)·exp(−d), s = 5·d², d = √s
	CMPQ    BX, DX
	JGE     done4
	VMOVUPD (SI)(BX*8), Y4
	VMULPD  FIVE, Y4, Y5
	VSQRTPD Y5, Y6
	VXORPD  SIGN, Y6, Y0
	INRANGE4(done4)
	EXP4
	VADDPD  ONE, Y6, Y6
	VDIVPD  THREE, Y5, Y5
	VADDPD  Y5, Y6, Y6
	VMULPD  Y0, Y6, Y0
	VMOVUPD Y0, (SI)(BX*8)
	ADDQ    $4, BX
	JMP     m52loop4

rbfloop4: // exp(−0.5·d²)
	CMPQ    BX, DX
	JGE     done4
	VMOVUPD (SI)(BX*8), Y4
	VMULPD  MHALF, Y4, Y0
	INRANGE4(done4)
	EXP4
	VMOVUPD Y0, (SI)(BX*8)
	ADDQ    $4, BX
	JMP     rbfloop4

done4:
	VZEROUPPER
	MOVQ BX, ret+32(FP)
	RET

// func fill23AVX2(col, c0, c1, e0, e1, o0, o1, o2 []float64) int
TEXT ·fill23AVX2(SB), NOSPLIT, $0-200
	MOVQ col_base+0(FP), DI
	MOVQ col_len+8(FP), DX
	MOVQ c0_base+24(FP), SI
	MOVQ c1_base+48(FP), R8
	MOVQ e0_base+72(FP), R9
	MOVQ e1_base+96(FP), R10
	MOVQ o0_base+120(FP), R11
	MOVQ o1_base+144(FP), R12
	MOVQ o2_base+168(FP), R13
	XORQ BX, BX
	ANDQ $~3, DX
fill4: // ((c0 + e0) + e1) + (((c1 + o0) + o1) + o2), the scalar loop's adds in its order
	CMPQ    BX, DX
	JGE     fill4done
	VMOVUPD (SI)(BX*8), Y0
	VADDPD  (R9)(BX*8), Y0, Y0
	VADDPD  (R10)(BX*8), Y0, Y0
	VMOVUPD (R8)(BX*8), Y1
	VADDPD  (R11)(BX*8), Y1, Y1
	VADDPD  (R12)(BX*8), Y1, Y1
	VADDPD  (R13)(BX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     fill4
fill4done:
	VZEROUPPER
	MOVQ BX, ret+192(FP)
	RET
