// Multi-core kernels: the parallel face of the packed GEMM.
//
// Work is sharded over packed panels, not raw rows: per (jc, pc) slab
// the B panel is packed once and shared read-only, and workers consume
// mr-row A panels (the selected kernel's mr) from an atomic cursor, each packing its own panel
// into a pooled arena before running the macro-kernel. C row spans are
// disjoint across panels, so no reduction and no synchronization beyond
// the per-slab join is needed — and because every C element is one
// ascending-k fused-multiply-add chain on every path, the parallel
// kernels are bit-exact with the sequential ones at any worker count.
// Determinism is not traded for speed.
package blas

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers resolves a worker-count argument: values ≥ 1 are taken
// as-is, anything else means "one shard per available core"
// (GOMAXPROCS).
func DefaultWorkers(workers int) int {
	if workers >= 1 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRowFlopCutoff is the flop count below which spawning
// goroutines costs more than the sharded compute saves; such calls run
// sequentially. A goroutine spawn+join is ~1µs; one full 64×64×64 block
// update (2·64³ flops, the default q×q BlockUpdate) is comfortably
// above break-even and must parallelize, so the threshold sits strictly
// below it.
const parallelRowFlopCutoff = 2 * 64 * 64 * 64

// parallelPanelStride caps how many mr-row A panels a worker claims per
// cursor fetch: large enough to amortize the atomic, small enough to
// load-balance ragged shard sizes. panelStride shrinks it when the
// panel count is small so every worker still receives work (q = 100 has
// only 25 panels — a fixed stride of 4 would feed at most 7 workers).
const parallelPanelStride = 4

// panelStride picks the cursor stride for sharding panels across
// workers: at least 1, at most parallelPanelStride, aiming for ~4
// fetches per worker so ragged tails balance.
func panelStride(panels, workers int) int {
	stride := panels / (4 * workers)
	if stride < 1 {
		return 1
	}
	if stride > parallelPanelStride {
		return parallelPanelStride
	}
	return stride
}

// ParallelGemm computes C ← C + A·B exactly like GemmBlocked but with
// the packed A panels of each slab sharded across workers goroutines
// (≤ 0 means GOMAXPROCS). Results are bit-identical to Gemm/GemmBlocked
// for finite inputs at any worker count.
func ParallelGemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, workers int) {
	gemmCheckDims("ParallelGemm", m, n, k, lda, ldb, ldc)
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	workers = DefaultWorkers(workers)
	if panels := (m + kern.mr - 1) / kern.mr; workers > panels {
		workers = panels
	}
	if workers <= 1 || 2*m*n*k < parallelRowFlopCutoff {
		GemmBlocked(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	parallelGemmPacked(m, n, k, a, lda, b, ldb, c, ldc, workers)
}

func parallelGemmPacked(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, workers int) {
	nc := ncBlock
	if nc > n {
		nc = n
	}
	kc := kcBlock
	if kc > k {
		kc = k
	}
	bbuf := packPool.Get(packSizeB(kc, nc))
	mr := kern.mr
	panels := (m + mr - 1) / mr
	stride := panelStride(panels, workers)
	if groups := (panels + stride - 1) / stride; workers > groups {
		workers = groups // never spawn a goroutine with no work group
	}
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kb := min(kc, k-pc)
			packB(kb, nb, b[pc*ldb+jc:], ldb, bbuf)
			// Shard the A panels of this slab. The join below is a real
			// barrier: the next pc slab must not start before this one
			// finishes, or a C element could see its k terms out of
			// order.
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					abuf := packPool.Get(packSizeA(stride*mr, kb))
					for {
						p0 := int(cursor.Add(int64(stride))) - stride
						if p0 >= panels {
							break
						}
						lo := p0 * mr
						hi := min(m, (p0+stride)*mr)
						packA(hi-lo, kb, a[lo*lda+pc:], lda, abuf, false)
						macroKernel(hi-lo, nb, kb, abuf, bbuf, c[lo*ldc+jc:], ldc)
					}
					packPool.Put(abuf)
				}()
			}
			wg.Wait()
		}
	}
	packPool.Put(bbuf)
}

// ParallelBlockUpdate computes Cij ← Cij + Aik·Bkj for three q×q blocks
// with the packed panels sharded across workers goroutines. It is the
// multi-core form of BlockUpdate with bit-identical results.
func ParallelBlockUpdate(cij, aik, bkj []float64, q, workers int) {
	if len(cij) < q*q || len(aik) < q*q || len(bkj) < q*q {
		panic("blas: ParallelBlockUpdate undersized operand")
	}
	ParallelGemm(q, q, q, aik, q, bkj, q, cij, q, workers)
}

// ParallelUpdateChunk applies Cij ← Cij + Ai·Bj to every block of a
// rows×cols chunk, the per-step work of all three runtimes. Every Ai
// and Bj is packed exactly once (as in UpdateChunk): the rows + cols
// packs fan out across workers goroutines, and after a barrier the
// independent block macro-multiplications do, all reading the shared
// packs. When the chunk has fewer blocks than workers (µ = 1 chunks),
// the surplus cores shard panels inside each block instead. cBlocks is
// row-major (rows*cols), aBlks has rows entries, bBlks has cols entries.
// Results are bit-identical to UpdateChunk.
func ParallelUpdateChunk(cBlocks, aBlks, bBlks [][]float64, rows, cols, q, workers int) {
	workers = DefaultWorkers(workers)
	nb := rows * cols
	if nb == 0 {
		return
	}
	// Same break-even gate as ParallelGemm, over the whole chunk: tiny
	// blocks (small q test/simulation workloads) must not pay a
	// goroutine fan-out per update set.
	if workers <= 1 || 2*nb*q*q*q < parallelRowFlopCutoff {
		UpdateChunk(cBlocks, aBlks, bBlks, rows, cols, q)
		return
	}
	if q > kcBlock {
		// Oversized blocks re-slab k per block; keep the simple
		// block-at-a-time fan-out with in-block sharding.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				ParallelBlockUpdate(cBlocks[i*cols+j], aBlks[i], bBlks[j], q, workers)
			}
		}
		return
	}
	if nb < workers {
		// Too few blocks to occupy every core at block granularity:
		// run the blocks concurrently and split the cores across them,
		// sharding panels within each block.
		per := (workers + nb - 1) / nb
		var wg sync.WaitGroup
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wg.Add(1)
				go func(i, j int) {
					defer wg.Done()
					ParallelBlockUpdate(cBlocks[i*cols+j], aBlks[i], bBlks[j], q, per)
				}(i, j)
			}
		}
		wg.Wait()
		return
	}
	// Two phases over the same goroutines, each a dynamic queue on an
	// atomic cursor (edge chunks are smaller, so shards are uneven):
	// first the rows + cols packs, then — once every pack is complete,
	// which the barrier guarantees — the rows·cols block products, which
	// only read the packs. The arenas are shared, so the transient
	// footprint is rows + cols packed blocks for the whole call, no
	// more than UpdateChunk's cols + 1 per core once there are two.
	packs := make([][]float64, rows+cols)
	for p := range packs {
		if p < rows {
			packs[p] = packPool.Get(packSizeA(q, q))
		} else {
			packs[p] = packPool.Get(packSizeB(q, q))
		}
	}
	var packCursor, blockCursor atomic.Int64
	var packed, done sync.WaitGroup
	packed.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer done.Done()
			for {
				p := int(packCursor.Add(1)) - 1
				if p >= len(packs) {
					break
				}
				if p < rows {
					packA(q, q, aBlks[p], q, packs[p], false)
				} else {
					packB(q, q, bBlks[p-rows], q, packs[p])
				}
			}
			packed.Done()
			packed.Wait()
			for {
				idx := int(blockCursor.Add(1)) - 1
				if idx >= nb {
					break
				}
				macroKernel(q, q, q, packs[idx/cols], packs[rows+idx%cols], cBlocks[idx], q)
			}
		}()
	}
	done.Wait()
	for _, buf := range packs {
		packPool.Put(buf)
	}
}
