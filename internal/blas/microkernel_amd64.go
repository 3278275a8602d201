package blas

// Assembly micro-kernel plumbing: feature detection at init, and the Go
// declarations for microkernel_amd64.s. The kernels are gated at runtime
// (CPUID/XGETBV), not at compile time, so a single binary runs
// everywhere; on CPUs without AVX2+FMA the portable math.FMA kernel
// produces bit-identical results (software fused multiply-add is
// correctly rounded, exactly like the hardware instruction).

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbvAsm() (eax, edx uint32)

// kern4x8asm is the AVX2+FMA micro-kernel: a full 4×8 C tile updated
// with one VFMADD231PD chain per element in ascending-k order. Callers
// must guarantee the CPU support, kc ≥ 1, ap/bp hold kc·4 and kc·8
// packed elements, and the 4 C rows of 8 are addressable at stride ldc.
//
//go:noescape
func kern4x8asm(kc int, ap, bp, c *float64, ldc int)

// kern8x16asm is the AVX-512 micro-kernel: a full 8×16 C tile in 16 ZMM
// accumulators, the same per-lane VFMADD231PD chain. Same contract as
// kern4x8asm with ap/bp holding kc·8 and kc·16 packed elements and 8 C
// rows of 16.
//
//go:noescape
func kern8x16asm(kc int, ap, bp, c *float64, ldc int)

// run updates one full mr×nr tile. kc ≥ 1; ap and bp must hold kc·mr
// and kc·nr packed elements and c the tile's mr rows at stride ldc —
// checked here, because the assembly cannot.
func (k *kernel) run(kc int, ap, bp []float64, c []float64, ldc int) {
	_, _, _ = ap[kc*k.mr-1], bp[kc*k.nr-1], c[(k.mr-1)*ldc+k.nr-1]
	switch k.impl {
	case implAVX512:
		kern8x16asm(kc, &ap[0], &bp[0], &c[0], ldc)
	case implAVX2:
		kern4x8asm(kc, &ap[0], &bp[0], &c[0], ldc)
	default:
		microKernelGo(kc, ap, bp, c, ldc)
	}
}

// supportedKernels lists the micro-kernels this CPU and OS can run,
// fastest first. All three stay in the binary: the AVX2 and math.FMA
// kernels are the only paths on CPUs without AVX-512 (and without
// AVX2), and an AVX-512 host still runs them under test.
func supportedKernels() []kernel {
	var ks []kernel
	avx2, avx512 := detectSIMD()
	if avx512 {
		ks = append(ks, kernel{name: "avx512-8x16", mr: 8, nr: 16, impl: implAVX512})
	}
	if avx2 {
		ks = append(ks, kernel{name: "avx2fma-4x8", mr: 4, nr: 8, impl: implAVX2})
	}
	return append(ks, goKernel)
}

// detectSIMD reports whether the CPU and OS support the AVX2+FMA kernel
// (AVX, FMA and AVX2 feature bits, OS-enabled XMM and YMM state) and,
// on top of that, the AVX-512 kernel (AVX512F, and XCR0 enabling the
// opmask, ZMM_Hi256 and Hi16_ZMM state as well: XCR0 & 0xE6 == 0xE6).
func detectSIMD() (avx2, avx512 bool) {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	avx2 = ebx7&avx2Bit != 0
	avx512 = avx2 && ebx7&avx512fBit != 0 && xcr0&0xE6 == 0xE6
	return avx2, avx512
}
