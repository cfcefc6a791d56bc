#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAdd2(d *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, k, cols int)
//
// For r in {0, 1} and j < cols (a multiple of 4), and k > 0:
//
//	d[r*ldd+j] += a[r*ars+kk*aks] * b[kk*ldb+j]  for kk = 0, 1, ..., k-1
//
// skipping every kk whose a entry is ±0. Each product is one VMULPD lane
// and each sum one VADDPD lane, in ascending kk, so every element is
// rounded exactly as the scalar Go loop rounds it. The zero test runs on
// the entry's bits: doubling them as an integer drops the sign and gives
// zero for ±0 only, so NaN is multiplied, as Go's v != 0 is true for NaN,
// and the test keeps off the vector ports. Only VEX-encoded vector
// instructions run, and VZEROUPPER clears the upper lanes before returning
// to SSE code.
//
// Columns go in tiles of 16, then at most one tile of 8 and one of 4.
//
// Registers: DI d row 0, SI row 1 offset, R8 a row 0, R9 row 1 offset,
// R10 b, R11 a step, R12 b step (all in bytes), R13 k, BX columns left;
// the k loop walks AX over a, DX over b and counts CX down, and R15 holds
// the bits of the a entry under test. Y0 holds the broadcast a entry, Y1
// (and Y2 in the narrow tiles) a product.
// The 16-column tile keeps its running sums in Y4-Y11 and the b row in
// Y2, Y3, Y12 and Y13; the 8- and 4-column tiles use Y4-Y7 and Y8-Y9.
TEXT ·mulAdd2(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), SI
	SHLQ $3, SI
	MOVQ a+16(FP), R8
	MOVQ ars+24(FP), R9
	SHLQ $3, R9
	MOVQ aks+32(FP), R11
	SHLQ $3, R11
	MOVQ b+40(FP), R10
	MOVQ ldb+48(FP), R12
	SHLQ $3, R12
	MOVQ k+56(FP), R13
	MOVQ cols+64(FP), BX

tile16:
	CMPQ BX, $16
	JLT  tile8
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD 64(DI), Y6
	VMOVUPD 96(DI), Y7
	VMOVUPD (DI)(SI*1), Y8
	VMOVUPD 32(DI)(SI*1), Y9
	VMOVUPD 64(DI)(SI*1), Y10
	VMOVUPD 96(DI)(SI*1), Y11
	MOVQ    R8, AX
	MOVQ    R10, DX
	MOVQ    R13, CX

loop16:
	VMOVUPD      (DX), Y2
	VMOVUPD      32(DX), Y3
	VMOVUPD      64(DX), Y12
	VMOVUPD      96(DX), Y13
	MOVQ         (AX), R15
	ADDQ         R15, R15
	JEQ          skip0x16
	VBROADCASTSD (AX), Y0
	VMULPD       Y2, Y0, Y1
	VADDPD       Y1, Y4, Y4
	VMULPD       Y3, Y0, Y1
	VADDPD       Y1, Y5, Y5
	VMULPD       Y12, Y0, Y1
	VADDPD       Y1, Y6, Y6
	VMULPD       Y13, Y0, Y1
	VADDPD       Y1, Y7, Y7

skip0x16:
	MOVQ         (AX)(R9*1), R15
	ADDQ         R15, R15
	JEQ          skip1x16
	VBROADCASTSD (AX)(R9*1), Y0
	VMULPD       Y2, Y0, Y1
	VADDPD       Y1, Y8, Y8
	VMULPD       Y3, Y0, Y1
	VADDPD       Y1, Y9, Y9
	VMULPD       Y12, Y0, Y1
	VADDPD       Y1, Y10, Y10
	VMULPD       Y13, Y0, Y1
	VADDPD       Y1, Y11, Y11

skip1x16:
	ADDQ R11, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  loop16

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, 64(DI)
	VMOVUPD Y7, 96(DI)
	VMOVUPD Y8, (DI)(SI*1)
	VMOVUPD Y9, 32(DI)(SI*1)
	VMOVUPD Y10, 64(DI)(SI*1)
	VMOVUPD Y11, 96(DI)(SI*1)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $16, BX
	JMP     tile16

tile8:
	CMPQ BX, $8
	JLT  tile4
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD (DI)(SI*1), Y6
	VMOVUPD 32(DI)(SI*1), Y7
	MOVQ    R8, AX
	MOVQ    R10, DX
	MOVQ    R13, CX

loop8:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	MOVQ         (AX), R15
	ADDQ         R15, R15
	JEQ          skip0x8
	VBROADCASTSD (AX), Y0
	VMULPD       Y8, Y0, Y1
	VADDPD       Y1, Y4, Y4
	VMULPD       Y9, Y0, Y2
	VADDPD       Y2, Y5, Y5

skip0x8:
	MOVQ         (AX)(R9*1), R15
	ADDQ         R15, R15
	JEQ          skip1x8
	VBROADCASTSD (AX)(R9*1), Y0
	VMULPD       Y8, Y0, Y1
	VADDPD       Y1, Y6, Y6
	VMULPD       Y9, Y0, Y2
	VADDPD       Y2, Y7, Y7

skip1x8:
	ADDQ R11, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  loop8

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	VMOVUPD Y6, (DI)(SI*1)
	VMOVUPD Y7, 32(DI)(SI*1)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $8, BX

tile4:
	CMPQ BX, $4
	JLT  done
	VMOVUPD (DI), Y4
	VMOVUPD (DI)(SI*1), Y6
	MOVQ    R8, AX
	MOVQ    R10, DX
	MOVQ    R13, CX

loop4:
	VMOVUPD      (DX), Y8
	MOVQ         (AX), R15
	ADDQ         R15, R15
	JEQ          skip0x4
	VBROADCASTSD (AX), Y0
	VMULPD       Y8, Y0, Y1
	VADDPD       Y1, Y4, Y4

skip0x4:
	MOVQ         (AX)(R9*1), R15
	ADDQ         R15, R15
	JEQ          skip1x4
	VBROADCASTSD (AX)(R9*1), Y0
	VMULPD       Y8, Y0, Y1
	VADDPD       Y1, Y6, Y6

skip1x4:
	ADDQ R11, AX
	ADDQ R12, DX
	DECQ CX
	JNZ  loop4

	VMOVUPD Y4, (DI)
	VMOVUPD Y6, (DI)(SI*1)

done:
	VZEROUPPER
	RET
