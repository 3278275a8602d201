// The AVX2+FMA 4×8 and AVX-512 8×16 GEMM micro-kernels and the
// CPUID/XGETBV probes that gate them. See microkernel.go for the
// bit-exactness contract: each C-tile element is one ascending-k chain
// of fused multiply-adds, which VFMADD231PD performs lane-wise exactly
// like math.FMA, on YMM and ZMM alike.

#include "textflag.h"

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func kern4x8asm(kc int, ap, bp, c *float64, ldc int)
//
// Register plan: Y0–Y7 hold the 4×8 C tile (two YMM per row), Y8/Y9 the
// current 8 packed B values, Y10–Y13 broadcasts of the 4 packed A
// values. The k loop issues 8 FMAs on 2 loads + 4 broadcasts, keeping
// both FMA ports busy.
TEXT ·kern4x8asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // row stride in bytes

	// Load the C tile: row r at DX + r·ldc.
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	LEAQ (DX)(R8*1), R9
	VMOVUPD (R9), Y2
	VMOVUPD 32(R9), Y3
	LEAQ (R9)(R8*1), R10
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	LEAQ (R10)(R8*1), R11
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7

loop:
	VMOVUPD (DI), Y8       // b[k][0:4]
	VMOVUPD 32(DI), Y9     // b[k][4:8]
	VBROADCASTSD (SI), Y10
	VFMADD231PD Y8, Y10, Y0
	VFMADD231PD Y9, Y10, Y1
	VBROADCASTSD 8(SI), Y11
	VFMADD231PD Y8, Y11, Y2
	VFMADD231PD Y9, Y11, Y3
	VBROADCASTSD 16(SI), Y12
	VFMADD231PD Y8, Y12, Y4
	VFMADD231PD Y9, Y12, Y5
	VBROADCASTSD 24(SI), Y13
	VFMADD231PD Y8, Y13, Y6
	VFMADD231PD Y9, Y13, Y7
	ADDQ $32, SI           // mr doubles
	ADDQ $64, DI           // nr doubles
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, 32(R10)
	VMOVUPD Y6, (R11)
	VMOVUPD Y7, 32(R11)
	VZEROUPPER
	RET

// func kern8x16asm(kc int, ap, bp, c *float64, ldc int)
//
// Register plan: Z0–Z15 hold the 8×16 C tile (two ZMM per row), Z16/Z17
// the current 16 packed B values, Z18–Z21 broadcasts of the packed A
// values (four in rotation, so a broadcast never waits for the FMAs
// that read the previous one). The k loop issues 16 FMAs on 2 loads +
// 8 broadcasts: 16 independent accumulator chains cover the FMA
// latency on both ZMM FMA ports. Row r of C is at DX + r·ldc; the
// eight row pointers live in DX, R9–R13, BX and AX.
TEXT ·kern8x16asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8            // row stride in bytes

	LEAQ (DX)(R8*1), R9    // row 1
	LEAQ (DX)(R8*2), R10   // row 2
	LEAQ (R9)(R8*2), R11   // row 3
	LEAQ (DX)(R8*4), R12   // row 4
	LEAQ (R9)(R8*4), R13   // row 5
	LEAQ (R10)(R8*4), BX   // row 6
	LEAQ (R11)(R8*4), AX   // row 7

	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD (R9), Z2
	VMOVUPD 64(R9), Z3
	VMOVUPD (R10), Z4
	VMOVUPD 64(R10), Z5
	VMOVUPD (R11), Z6
	VMOVUPD 64(R11), Z7
	VMOVUPD (R12), Z8
	VMOVUPD 64(R12), Z9
	VMOVUPD (R13), Z10
	VMOVUPD 64(R13), Z11
	VMOVUPD (BX), Z12
	VMOVUPD 64(BX), Z13
	VMOVUPD (AX), Z14
	VMOVUPD 64(AX), Z15

	// The tile below this one is the macro-kernel's next stop: start
	// pulling its C rows in now, under this tile's k loop.
	PREFETCHT0 (DX)(R8*8)
	PREFETCHT0 64(DX)(R8*8)
	PREFETCHT0 (R9)(R8*8)
	PREFETCHT0 64(R9)(R8*8)
	PREFETCHT0 (R10)(R8*8)
	PREFETCHT0 64(R10)(R8*8)
	PREFETCHT0 (R11)(R8*8)
	PREFETCHT0 64(R11)(R8*8)
	PREFETCHT0 (R12)(R8*8)
	PREFETCHT0 64(R12)(R8*8)
	PREFETCHT0 (R13)(R8*8)
	PREFETCHT0 64(R13)(R8*8)
	PREFETCHT0 (BX)(R8*8)
	PREFETCHT0 64(BX)(R8*8)
	PREFETCHT0 (AX)(R8*8)
	PREFETCHT0 64(AX)(R8*8)

loop512:
	VMOVUPD (DI), Z16      // b[k][0:8]
	VMOVUPD 64(DI), Z17    // b[k][8:16]
	VBROADCASTSD (SI), Z18
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VBROADCASTSD 8(SI), Z19
	VFMADD231PD Z16, Z19, Z2
	VFMADD231PD Z17, Z19, Z3
	VBROADCASTSD 16(SI), Z20
	VFMADD231PD Z16, Z20, Z4
	VFMADD231PD Z17, Z20, Z5
	VBROADCASTSD 24(SI), Z21
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7
	VBROADCASTSD 32(SI), Z18
	VFMADD231PD Z16, Z18, Z8
	VFMADD231PD Z17, Z18, Z9
	VBROADCASTSD 40(SI), Z19
	VFMADD231PD Z16, Z19, Z10
	VFMADD231PD Z17, Z19, Z11
	VBROADCASTSD 48(SI), Z20
	VFMADD231PD Z16, Z20, Z12
	VFMADD231PD Z17, Z20, Z13
	VBROADCASTSD 56(SI), Z21
	VFMADD231PD Z16, Z21, Z14
	VFMADD231PD Z17, Z21, Z15
	ADDQ $64, SI           // mr doubles
	ADDQ $128, DI          // nr doubles
	DECQ CX
	JNZ  loop512

	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, (R9)
	VMOVUPD Z3, 64(R9)
	VMOVUPD Z4, (R10)
	VMOVUPD Z5, 64(R10)
	VMOVUPD Z6, (R11)
	VMOVUPD Z7, 64(R11)
	VMOVUPD Z8, (R12)
	VMOVUPD Z9, 64(R12)
	VMOVUPD Z10, (R13)
	VMOVUPD Z11, 64(R13)
	VMOVUPD Z12, (BX)
	VMOVUPD Z13, 64(BX)
	VMOVUPD Z14, (AX)
	VMOVUPD Z15, 64(AX)
	VZEROUPPER
	RET
