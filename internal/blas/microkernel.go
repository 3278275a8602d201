package blas

import "math"

// A micro-kernel computes an mr×nr tile of C ← C + Ap·Bp from packed
// micro-panels: ap holds kc steps of mr A values, bp holds kc steps of
// nr B values, and C is row-major with stride ldc.
//
// Bit-exactness contract: every C element is updated as one chain of
// fused multiply-adds in ascending-k order,
//
//	c = fma(a[k], b[k], c)   for k = 0, 1, …, kc−1,
//
// with a single rounding per step (IEEE-754 fusedMultiplyAdd). The
// reference Gemm applies the identical chain element-by-element, and the
// tile shape never enters an element's chain, so the packed kernel, the
// reference kernel, the Go fallback and both assembly kernels (AVX2 4×8,
// AVX-512 8×16) all produce bit-identical results — the invariant the
// property tests in packed_test.go pin with exact == comparisons, once
// per kernel the host can run. Storing C back between kc slabs does not
// perturb the chain: float64 stores are exact.

// kernel describes one micro-kernel: its register-tile geometry and the
// routine that updates a full tile (run, in the per-architecture files).
// The packers, the macro-kernel and the panel sharding all read mr/nr
// from the selected descriptor, so a kernel brings its own tile shape.
type kernel struct {
	name   string
	mr, nr int
	impl   kernelImpl
}

// kernelImpl names the tile routine kernel.run dispatches to. It is a
// tag rather than a func value so the calls stay static: an indirect
// call would force every edge tile's stack scratch onto the heap.
type kernelImpl uint8

const (
	implGo     kernelImpl = iota // math.FMA, 4×8
	implAVX2                     // VFMADD231PD on YMM, 4×8
	implAVX512                   // VFMADD231PD on ZMM, 8×16
)

var goKernel = kernel{name: "go-fma-4x8", mr: 4, nr: 8, impl: implGo}

// maxMR×maxNR bounds every kernel's tile; microKernelEdge sizes its
// scratch tile from it.
const (
	maxMR = 8
	maxNR = 16
)

// kern is the micro-kernel every packed path runs: the fastest one the
// CPU supports, chosen once at init from CPUID/XGETBV and nothing else
// (supportedKernels lists them fastest first). Tests substitute each
// supported kernel in turn; production code never writes it.
var kern = supportedKernels()[0]

// KernelName identifies the selected micro-kernel, for benchmark records
// and the worker and server exit lines.
func KernelName() string { return kern.name }

// microKernelGo is the portable kernel: a 4×8 tile computed as two 2×8
// register sub-tiles (16 accumulators each fit the scalar register file
// without spills). math.FMA performs the identical correctly-rounded
// fused multiply-add as the hardware kernels — in software on CPUs
// without an FMA unit — so it is bit-exact with the assembly paths.
func microKernelGo(kc int, ap, bp []float64, c []float64, ldc int) {
	kern2x8go(kc, ap, bp, c, ldc)
	kern2x8go(kc, ap[2:], bp, c[2*ldc:], ldc)
}

// kern2x8go updates rows {0,1} of a 4×8 micro-tile: ap is indexed at
// stride 4 (the packed panel holds all four rows), bp at stride 8.
func kern2x8go(kc int, ap, bp []float64, c []float64, ldc int) {
	c00, c01, c02, c03 := c[0], c[1], c[2], c[3]
	c04, c05, c06, c07 := c[4], c[5], c[6], c[7]
	c10, c11, c12, c13 := c[ldc], c[ldc+1], c[ldc+2], c[ldc+3]
	c14, c15, c16, c17 := c[ldc+4], c[ldc+5], c[ldc+6], c[ldc+7]
	oa, ob := 0, 0
	for p := 0; p < kc; p++ {
		a0, a1 := ap[oa], ap[oa+1]
		b := bp[ob]
		c00 = math.FMA(a0, b, c00)
		c10 = math.FMA(a1, b, c10)
		b = bp[ob+1]
		c01 = math.FMA(a0, b, c01)
		c11 = math.FMA(a1, b, c11)
		b = bp[ob+2]
		c02 = math.FMA(a0, b, c02)
		c12 = math.FMA(a1, b, c12)
		b = bp[ob+3]
		c03 = math.FMA(a0, b, c03)
		c13 = math.FMA(a1, b, c13)
		b = bp[ob+4]
		c04 = math.FMA(a0, b, c04)
		c14 = math.FMA(a1, b, c14)
		b = bp[ob+5]
		c05 = math.FMA(a0, b, c05)
		c15 = math.FMA(a1, b, c15)
		b = bp[ob+6]
		c06 = math.FMA(a0, b, c06)
		c16 = math.FMA(a1, b, c16)
		b = bp[ob+7]
		c07 = math.FMA(a0, b, c07)
		c17 = math.FMA(a1, b, c17)
		oa += 4
		ob += 8
	}
	c[0], c[1], c[2], c[3] = c00, c01, c02, c03
	c[4], c[5], c[6], c[7] = c04, c05, c06, c07
	c[ldc], c[ldc+1], c[ldc+2], c[ldc+3] = c10, c11, c12, c13
	c[ldc+4], c[ldc+5], c[ldc+6], c[ldc+7] = c14, c15, c16, c17
}

// microKernelEdge updates a partial iw×jw tile (iw ≤ mr, jw ≤ nr)
// through an mr×nr scratch tile: the live C values are staged in, the
// full kernel runs on the scratch, and only the live results are copied
// back. The copies are exact, so edge tiles keep the same per-element
// fused chains; the dead scratch lanes absorb the zero-padded packing
// lanes and are discarded.
func microKernelEdge(k *kernel, kc int, ap, bp []float64, c []float64, ldc, iw, jw int) {
	var tile [maxMR * maxNR]float64
	nr := k.nr
	for i := 0; i < iw; i++ {
		copy(tile[i*nr:i*nr+jw], c[i*ldc:i*ldc+jw])
	}
	k.run(kc, ap, bp, tile[:], nr)
	for i := 0; i < iw; i++ {
		copy(c[i*ldc:i*ldc+jw], tile[i*nr:i*nr+jw])
	}
}

// fmaAxpy computes y ← fma(alpha, x, y) elementwise — the reference
// kernel's inner loop, one fused multiply-add per element so the
// reference chain matches the packed kernels bit for bit.
func fmaAxpy(alpha float64, x, y []float64) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] = math.FMA(alpha, x[i], y[i])
		y[i+1] = math.FMA(alpha, x[i+1], y[i+1])
		y[i+2] = math.FMA(alpha, x[i+2], y[i+2])
		y[i+3] = math.FMA(alpha, x[i+3], y[i+3])
	}
	for ; i < n; i++ {
		y[i] = math.FMA(alpha, x[i], y[i])
	}
}
