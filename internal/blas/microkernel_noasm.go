//go:build !amd64

package blas

// Off amd64 the portable math.FMA kernel is the only one (bit-identical;
// on arm64 and friends math.FMA is a single hardware instruction, so it
// is itself a register-blocked FMA kernel).

func supportedKernels() []kernel { return []kernel{goKernel} }

// run updates one full 4×8 tile.
func (k *kernel) run(kc int, ap, bp []float64, c []float64, ldc int) {
	microKernelGo(kc, ap, bp, c, ldc)
}
