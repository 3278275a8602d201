package blas

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// benchColdBytes is the working set the cold arms rotate through: four
// times the 2 MiB L2 of the hosts this series is recorded on, so an
// operand is out of L2 again by the time its turn comes back.
const benchColdBytes = 8 << 20

// benchRowFlops is the work of one timed iteration, the flops of one
// q = 256 block update: smaller blocks repeat until they match it.
// (The old series timed one update per iteration, so its q = 64 row was
// five 20 µs samples and read anywhere from 0.77 to 25 Gflop/s.)
const benchRowFlops = 2 * 256 * 256 * 256

func benchBlocks(n, q int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, q*q)
		for j := range out[i] {
			out[i][j] = float64((i+j)%9) - 4
		}
	}
	return out
}

// BenchmarkPackedKernel is the kernel headline series: one row per
// micro-kernel the host supports (forced through the test-only
// override; "selected" marks the one the CPU picks) and per
// paper-relevant block size q. Every arm does the same flops per
// iteration. Metrics, all Gflop/s:
//
//   - Gflops-hot: BlockUpdate replayed on one operand triple, everything
//     cache-resident — the kernel's ceiling, and all the old series had.
//   - Gflops-cold: BlockUpdate over a ring of triples larger than L2, so
//     packing reads its operands from beyond L2 as a worker's does. The
//     hot replay hid what packing a cold block costs.
//   - Gflops-chunk: UpdateChunk on 4×4 update sets from a ring larger
//     than L2 — the serving stack's unit of work (µ = 4), packs shared
//     across the set.
//   - Gflops-par: ParallelBlockUpdate, hot, on GOMAXPROCS cores,
//     asserted bit-identical to the sequential result.
//   - Gflops-axpy and speedup: the historical unpacked kernel
//     (GemmZeroSkip) and hot over it.
func BenchmarkPackedKernel(b *testing.B) {
	for _, k := range supportedKernels() {
		for _, q := range []int{64, 80, 100, 128, 256} {
			b.Run(fmt.Sprintf("%s/q%d", k.name, q), func(b *testing.B) {
				selected := k == kern
				withKernel(k, func() { benchPackedKernel(b, q, selected) })
			})
		}
	}
}

func benchPackedKernel(b *testing.B, q int, selected bool) {
	const mu = 4
	flops := 2 * q * q * q
	reps := (benchRowFlops + flops - 1) / flops
	triples := max(2, (benchColdBytes+3*8*q*q-1)/(3*8*q*q))
	as, bs, cs := benchBlocks(triples, q), benchBlocks(triples, q), benchBlocks(triples, q)
	sets := max(1, (benchColdBytes+(2*mu+mu*mu)*8*q*q-1)/((2*mu+mu*mu)*8*q*q))
	sa, sb, sc := benchBlocks(sets*mu, q), benchBlocks(sets*mu, q), benchBlocks(sets*mu*mu, q)
	chunkReps := (reps + mu*mu - 1) / (mu * mu)
	cpar := make([]float64, q*q)
	caxpy := make([]float64, q*q)
	workers := runtime.GOMAXPROCS(0)

	var hotT, coldT, chunkT, parT, axpyT time.Duration
	next, nextSet := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cs[0] {
			cs[0][j], cpar[j] = 0, 0
		}
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			BlockUpdate(cs[0], as[0], bs[0], q)
		}
		hotT += time.Since(t0)

		t0 = time.Now()
		for r := 0; r < reps; r++ {
			ParallelBlockUpdate(cpar, as[0], bs[0], q, workers)
		}
		parT += time.Since(t0)
		for j := range cpar {
			if cpar[j] != cs[0][j] {
				b.Fatalf("parallel packed kernel diverges at %d: %g != %g", j, cpar[j], cs[0][j])
			}
		}

		t0 = time.Now()
		for r := 0; r < reps; r++ {
			next = (next + 1) % triples
			BlockUpdate(cs[next], as[next], bs[next], q)
		}
		coldT += time.Since(t0)

		t0 = time.Now()
		for r := 0; r < chunkReps; r++ {
			nextSet = (nextSet + 1) % sets
			UpdateChunk(sc[nextSet*mu*mu:(nextSet+1)*mu*mu], sa[nextSet*mu:(nextSet+1)*mu], sb[nextSet*mu:(nextSet+1)*mu], mu, mu, q)
		}
		chunkT += time.Since(t0)

		t0 = time.Now()
		for r := 0; r < reps; r++ {
			GemmZeroSkip(q, q, q, as[0], q, bs[0], q, caxpy, q)
		}
		axpyT += time.Since(t0)
	}
	b.StopTimer()
	gflops := func(updates int, d time.Duration) float64 {
		return float64(flops) * float64(updates) * float64(b.N) / d.Seconds() / 1e9
	}
	b.ReportMetric(gflops(reps, hotT), "Gflops-hot")
	b.ReportMetric(gflops(reps, coldT), "Gflops-cold")
	b.ReportMetric(gflops(chunkReps*mu*mu, chunkT), "Gflops-chunk")
	b.ReportMetric(gflops(reps, parT), "Gflops-par")
	b.ReportMetric(gflops(reps, axpyT), "Gflops-axpy")
	b.ReportMetric(axpyT.Seconds()/hotT.Seconds(), "speedup")
	b.ReportMetric(float64(workers), "cores")
	sel := 0.0
	if selected {
		sel = 1
	}
	b.ReportMetric(sel, "selected")
}

// BenchmarkTile prices the bare micro-kernels on L1-resident panels at
// kc = kcBlock: the register loop's own ceiling, with no packing, no
// macro-kernel and no C traffic beyond the tile.
func BenchmarkTile(b *testing.B) {
	for _, k := range supportedKernels() {
		b.Run(k.name, func(b *testing.B) {
			ap := make([]float64, kcBlock*k.mr)
			bp := make([]float64, kcBlock*k.nr)
			c := make([]float64, k.mr*k.nr)
			for i := range ap {
				ap[i] = float64(i%7) - 3
			}
			for i := range bp {
				bp[i] = float64(i%5) - 2
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.run(kcBlock, ap, bp, c, k.nr)
			}
			b.ReportMetric(2*float64(k.mr*k.nr*kcBlock)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflops")
		})
	}
}
