package blas

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// fillRand fills a slice with reproducible values in [-1, 1).
func fillRand(rng *rand.Rand, s []float64) {
	for i := range s {
		s[i] = 2*rng.Float64() - 1
	}
}

// TestParallelGemmMatchesOracle is the property-style kernel test:
// randomized m/n/k (including tile-edge non-multiples), leading
// dimensions strictly larger than the row length, and worker counts
// 1..2·GOMAXPROCS, asserting exact float64 equality against the
// sequential Gemm oracle. Exactness, not tolerance: the parallel kernel
// must accumulate every C element in the same order as the oracle.
func TestParallelGemmMatchesOracle(t *testing.T) {
	forEachKernel(t, testParallelGemmMatchesOracle)
}

func testParallelGemmMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	maxWorkers := 2 * runtime.GOMAXPROCS(0)
	if maxWorkers < 4 {
		maxWorkers = 4
	}
	// Dimensions straddle the selected kernel's micro-tile (mr/nr), the
	// packed-path dispatch cutoff and the kc slab edges.
	dims := []int{1, 3, MR - 1, MR + 1, NR, NR + 1, 63, 64, 65, 2*64 + 17, kcBlock + MR + 1}
	for trial := 0; trial < 60; trial++ {
		m := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		// Leading dims > row length exercise the strided case.
		lda := k + rng.Intn(5)
		ldb := n + rng.Intn(5)
		ldc := n + rng.Intn(5)
		a := make([]float64, m*lda)
		b := make([]float64, k*ldb)
		c0 := make([]float64, m*ldc)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, c0)

		want := append([]float64(nil), c0...)
		Gemm(m, n, k, a, lda, b, ldb, want, ldc)

		workers := 1 + rng.Intn(maxWorkers)
		got := append([]float64(nil), c0...)
		ParallelGemm(m, n, k, a, lda, b, ldb, got, ldc, workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (m=%d n=%d k=%d lda=%d ldb=%d ldc=%d workers=%d): got[%d]=%g want %g",
					trial, m, n, k, lda, ldb, ldc, workers, i, got[i], want[i])
			}
		}

		// GemmBlocked must agree bit-for-bit too (same accumulation
		// order per element), pinning the equivalence the sharding
		// relies on.
		blocked := append([]float64(nil), c0...)
		GemmBlocked(m, n, k, a, lda, b, ldb, blocked, ldc)
		for i := range blocked {
			if blocked[i] != want[i] {
				t.Fatalf("trial %d: GemmBlocked diverges from Gemm at %d", trial, i)
			}
		}
	}
}

// TestParallelBlockUpdateExact checks the q×q block form across odd q
// values and worker counts.
func TestParallelBlockUpdateExact(t *testing.T) {
	forEachKernel(t, testParallelBlockUpdateExact)
}

func testParallelBlockUpdateExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []int{1, 2, 16, 63, 64, 73, 100} {
		a := make([]float64, q*q)
		b := make([]float64, q*q)
		c0 := make([]float64, q*q)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, c0)
		want := append([]float64(nil), c0...)
		BlockUpdate(want, a, b, q)
		for _, workers := range []int{1, 2, 3, 7} {
			got := append([]float64(nil), c0...)
			ParallelBlockUpdate(got, a, b, q, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("q=%d workers=%d: got[%d]=%g want %g", q, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelUpdateChunkExact drives the chunk-level fan-out (the
// runtimes' per-step work) over every rows×cols shape up to 3×3,
// including the µ=1 single-block case that falls back to in-block row
// sharding, for worker counts around the block count.
func TestParallelUpdateChunkExact(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		const q = 33
		for rows := 1; rows <= 3; rows++ {
			for cols := 1; cols <= 3; cols++ {
				aBlks, bBlks, base := chunkOperands(rng, rows, cols, q)
				want := cloneBlocks(base)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						BlockUpdate(want[i*cols+j], aBlks[i], bBlks[j], q)
					}
				}
				for _, workers := range []int{1, 2, rows * cols, rows*cols + 3} {
					got := cloneBlocks(base)
					ParallelUpdateChunk(got, aBlks, bBlks, rows, cols, q, workers)
					equalBlocks(t, fmt.Sprintf("rows=%d cols=%d workers=%d", rows, cols, workers), got, want)
				}
			}
		}
	})
}

// TestDefaultBlockSizeParallelizes pins the cutoff boundary: the
// default q=64 block update (2·64³ flops, exactly one kernel tile) must
// pass the parallel gate — a regression here silently serializes every
// µ=1 task at the default block size.
func TestDefaultBlockSizeParallelizes(t *testing.T) {
	if 2*64*64*64 < parallelRowFlopCutoff {
		t.Fatalf("q=64 block update (2·64³ flops) falls under the cutoff %d: default-size updates would never shard", parallelRowFlopCutoff)
	}
}

// TestDefaultWorkers pins the resolution rule.
func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(3); got != 3 {
		t.Fatalf("DefaultWorkers(3) = %d", got)
	}
	if got := DefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := DefaultWorkers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(-5) = %d, want GOMAXPROCS", got)
	}
}
