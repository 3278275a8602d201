package blas

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Property tests for the packed register-blocked GEMM: every packed and
// parallel path must be bit-identical (exact ==, no tolerance) to the
// sequential reference Gemm, which accumulates each C element as one
// ascending-k fused-multiply-add chain. The reference implementations of
// the historical kernels live at the bottom of this file so the
// rewritten TRSM/zero-skip paths stay pinned to their old arithmetic.

// unalignedSlice returns a randomly-offset window so packed operands
// exercise arbitrary (including 8-byte-odd) alignments under VMOVUPD.
func unalignedSlice(rng *rand.Rand, n int) []float64 {
	off := rng.Intn(4)
	backing := make([]float64, n+off)
	return backing[off : off+n]
}

func TestPackedGemmBitExact(t *testing.T) {
	forEachKernel(t, testPackedGemmBitExact)
}

func testPackedGemmBitExact(t *testing.T) {
	packedDims := kernelDims()
	rng := rand.New(rand.NewSource(41))
	maxWorkers := 2 * runtime.GOMAXPROCS(0)
	if maxWorkers < 4 {
		maxWorkers = 4
	}
	for trial := 0; trial < 120; trial++ {
		m := packedDims[rng.Intn(len(packedDims))]
		n := packedDims[rng.Intn(len(packedDims))]
		k := packedDims[rng.Intn(len(packedDims))]
		// Leading dims strictly larger than the row length exercise the
		// strided case.
		lda := k + rng.Intn(7)
		ldb := n + rng.Intn(7)
		ldc := n + rng.Intn(7)
		a := unalignedSlice(rng, m*lda)
		b := unalignedSlice(rng, k*ldb)
		c0 := unalignedSlice(rng, m*ldc)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, c0)

		want := append([]float64(nil), c0...)
		Gemm(m, n, k, a, lda, b, ldb, want, ldc)

		check := func(name string, got []float64) {
			t.Helper()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (m=%d n=%d k=%d lda=%d ldb=%d ldc=%d): %s diverges at %d: %g != %g",
						trial, m, n, k, lda, ldb, ldc, name, i, got[i], want[i])
				}
			}
		}

		packed := append([]float64(nil), c0...)
		gemmPacked(m, n, k, a, lda, b, ldb, packed, ldc, packPool, false)
		check("gemmPacked", packed)

		unpooled := append([]float64(nil), c0...)
		gemmPacked(m, n, k, a, lda, b, ldb, unpooled, ldc, nil, false)
		check("gemmPacked(nil pool)", unpooled)

		dispatched := append([]float64(nil), c0...)
		GemmBlocked(m, n, k, a, lda, b, ldb, dispatched, ldc)
		check("GemmBlocked", dispatched)

		workers := 1 + rng.Intn(maxWorkers)
		par := append([]float64(nil), c0...)
		ParallelGemm(m, n, k, a, lda, b, ldb, par, ldc, workers)
		check("ParallelGemm", par)
	}
}

func TestGemmSubBitExact(t *testing.T) {
	forEachKernel(t, testGemmSubBitExact)
}

func testGemmSubBitExact(t *testing.T) {
	packedDims := kernelDims()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		m := packedDims[rng.Intn(len(packedDims))]
		n := packedDims[rng.Intn(len(packedDims))]
		k := packedDims[rng.Intn(len(packedDims))]
		a := unalignedSlice(rng, m*k)
		b := unalignedSlice(rng, k*n)
		c0 := unalignedSlice(rng, m*n)
		fillRand(rng, a)
		fillRand(rng, b)
		fillRand(rng, c0)
		// Oracle: Gemm with an explicitly negated A (negation is exact).
		negA := make([]float64, len(a))
		for i, v := range a {
			negA[i] = -v
		}
		want := append([]float64(nil), c0...)
		Gemm(m, n, k, negA, k, b, n, want, n)
		got := append([]float64(nil), c0...)
		GemmSub(m, n, k, a, k, b, n, got, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (m=%d n=%d k=%d): GemmSub diverges at %d: %g != %g",
					trial, m, n, k, i, got[i], want[i])
			}
		}
	}
}

// TestUpdateChunkBitExact drives the chunk-level pack-reuse kernel (the
// runtimes' per-step work) against per-block BlockUpdate at the small
// and odd block sizes, including the sub-cutoff reference path; the
// paper-scale sizes and the pack count are TestUpdateChunkPacksOnce.
func TestUpdateChunkBitExact(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, q := range []int{1, 5, 16, 33, 80} {
			for rows := 1; rows <= 3; rows++ {
				for cols := 1; cols <= 3; cols++ {
					aBlks, bBlks, base := chunkOperands(rng, rows, cols, q)
					want := cloneBlocks(base)
					for i := 0; i < rows; i++ {
						for j := 0; j < cols; j++ {
							BlockUpdate(want[i*cols+j], aBlks[i], bBlks[j], q)
						}
					}
					got := cloneBlocks(base)
					UpdateChunk(got, aBlks, bBlks, rows, cols, q)
					equalBlocks(t, fmt.Sprintf("q=%d rows=%d cols=%d UpdateChunk", q, rows, cols), got, want)
				}
			}
		}
	})
}

// TestPackPoolReuse pins the arena recycling: a released arena comes
// back (same backing array) for the same rounded size class, and
// lengths are delivered exactly.
func TestPackPoolReuse(t *testing.T) {
	p := NewPackPool()
	b1 := p.Get(100)
	if len(b1) != 100 || cap(b1) != packArenaUnit {
		t.Fatalf("Get(100): len=%d cap=%d, want 100/%d", len(b1), cap(b1), packArenaUnit)
	}
	p.Put(b1)
	b2 := p.Get(packArenaUnit) // same class, different length
	if len(b2) != packArenaUnit {
		t.Fatalf("Get(%d): len=%d", packArenaUnit, len(b2))
	}
	// Identity holds deterministically only without -race: the race
	// runtime makes sync.Pool drop a random fraction of Puts on purpose.
	if !raceEnabled && &b1[0] != &b2[0] {
		t.Fatalf("arena was not recycled within its size class")
	}
	// A foreign buffer (capacity not class-rounded) must be discarded,
	// not pooled.
	p.Put(make([]float64, 10))
	b3 := p.Get(10)
	if cap(b3) != packArenaUnit {
		t.Fatalf("foreign buffer entered the pool: cap=%d", cap(b3))
	}
	// Nil pool: allocate-and-discard, still correct lengths.
	var nilPool *PackPool
	if got := nilPool.Get(7); len(got) != 7 {
		t.Fatalf("nil pool Get(7): len=%d", len(got))
	}
	nilPool.Put(make([]float64, packArenaUnit))
}

// TestPackPoolRace hammers one pool from many goroutines under -race:
// every holder writes a unique pattern and verifies it before release,
// so any double-handout shows up as a data race or a corrupted pattern.
func TestPackPoolRace(t *testing.T) {
	p := NewPackPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sizes := []int{64, 512, 4096, 5000}
			for iter := 0; iter < 200; iter++ {
				n := sizes[(id+iter)%len(sizes)]
				buf := p.Get(n)
				marker := float64(id*1000 + iter)
				for i := range buf {
					buf[i] = marker
				}
				runtime.Gosched()
				for i := range buf {
					if buf[i] != marker {
						t.Errorf("goroutine %d iter %d: arena corrupted at %d", id, iter, i)
						return
					}
				}
				p.Put(buf)
			}
		}(g)
	}
	wg.Wait()
}

// TestTrsmUpperRightMatchesReference pins the blocked row-streaming
// solver to the historical element-by-element loop, exactly.
func TestTrsmUpperRightMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(3*trsmColBlock)
		n := 1 + rng.Intn(3*trsmColBlock)
		lda := n + rng.Intn(5)
		ldb := n + rng.Intn(5)
		u := unalignedSlice(rng, n*lda)
		fillRand(rng, u)
		for i := 0; i < n; i++ {
			u[i*lda+i] = 2 + rng.Float64() // well away from zero
		}
		b0 := unalignedSlice(rng, m*ldb)
		fillRand(rng, b0)
		want := append([]float64(nil), b0...)
		trsmUpperRightReference(m, n, u, lda, want, ldb)
		got := append([]float64(nil), b0...)
		TrsmUpperRight(m, n, u, lda, got, ldb)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (m=%d n=%d lda=%d ldb=%d): diverges at %d: %g != %g",
					trial, m, n, lda, ldb, i, got[i], want[i])
			}
		}
	}
}

// TestTrsmLowerLeftMatchesReference pins the GemmZeroSkip-routed solver
// to the historical loop, exactly — including on inputs with structural
// zeros (the skip must fire identically).
func TestTrsmLowerLeftMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		m := 1 + rng.Intn(80)
		lda := n + rng.Intn(5)
		ldb := m + rng.Intn(5)
		l := unalignedSlice(rng, n*lda)
		fillRand(rng, l)
		for i := range l {
			if rng.Intn(3) == 0 {
				l[i] = 0 // exercise the sparsity skip
			}
		}
		b0 := unalignedSlice(rng, n*ldb)
		fillRand(rng, b0)
		want := append([]float64(nil), b0...)
		trsmLowerLeftReference(n, m, l, lda, want, ldb)
		got := append([]float64(nil), b0...)
		TrsmLowerLeft(n, m, l, lda, got, ldb)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d m=%d): diverges at %d: %g != %g", trial, n, m, i, got[i], want[i])
			}
		}
	}
}

// TestGemmZeroSkipMatchesHistoricalGemm pins GemmZeroSkip to the exact
// arithmetic of the pre-packing Gemm (axpy with the aip==0 branch).
func TestGemmZeroSkipMatchesHistoricalGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		a := unalignedSlice(rng, m*k)
		fillRand(rng, a)
		for i := range a {
			if rng.Intn(4) == 0 {
				a[i] = 0
			}
		}
		b := unalignedSlice(rng, k*n)
		fillRand(rng, b)
		c0 := unalignedSlice(rng, m*n)
		fillRand(rng, c0)
		want := append([]float64(nil), c0...)
		historicalGemm(m, n, k, a, k, b, n, want, n)
		got := append([]float64(nil), c0...)
		GemmZeroSkip(m, n, k, a, k, b, n, got, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: diverges at %d: %g != %g", trial, i, got[i], want[i])
			}
		}
	}
}

// --- historical reference implementations (pre-packing arithmetic) ---

// historicalGemm is the pre-packing Gemm: i-k-j with the zero-skip
// branch and unfused 4-way-unrolled axpy.
func historicalGemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for p := 0; p < k; p++ {
			aip := arow[p]
			if aip == 0 {
				continue
			}
			brow := b[p*ldb : p*ldb+n]
			nn := len(crow)
			if len(brow) < nn {
				nn = len(brow)
			}
			j := 0
			for ; j+4 <= nn; j += 4 {
				crow[j] += aip * brow[j]
				crow[j+1] += aip * brow[j+1]
				crow[j+2] += aip * brow[j+2]
				crow[j+3] += aip * brow[j+3]
			}
			for ; j < nn; j++ {
				crow[j] += aip * brow[j]
			}
		}
	}
}

// trsmUpperRightReference is the historical element-by-element solver.
func trsmUpperRightReference(m, n int, u []float64, lda int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		bi := b[i*ldb : i*ldb+n]
		for j := 0; j < n; j++ {
			s := bi[j]
			for k := 0; k < j; k++ {
				s -= bi[k] * u[k*lda+j]
			}
			bi[j] = s / u[j*lda+j]
		}
	}
}

// trsmLowerLeftReference is the historical row-by-row solver with the
// lik==0 skip.
func trsmLowerLeftReference(n, m int, l []float64, lda int, b []float64, ldb int) {
	for i := 0; i < n; i++ {
		bi := b[i*ldb : i*ldb+m]
		for k := 0; k < i; k++ {
			lik := l[i*lda+k]
			if lik == 0 {
				continue
			}
			bk := b[k*ldb : k*ldb+m]
			for j := 0; j < m; j++ {
				bi[j] -= lik * bk[j]
			}
		}
		// unit diagonal: no division
	}
}
