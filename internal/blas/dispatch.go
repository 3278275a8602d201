package blas

import "fmt"

// Size dispatch: packing pays for itself once the O(m·k + k·n) pack
// traffic is small against the O(m·n·k) kernel flops. Below the cutoff
// the reference fused-multiply-add kernel (Gemm) runs directly — tiny
// simulation-scale updates must not pay arena round-trips and edge-tile
// staging. Both paths produce bit-identical results (the same ascending-k
// fused chain per element), so the threshold is purely a performance
// knob. Measured on amd64 the packed path wins from q = 8 up (3.0 vs
// 1.3 Gflops at q = 8, and pulling away fast); only the very smallest
// simulator-scale updates stay on the reference path.
const packedMinFlops = 2 * 8 * 8 * 8

// gemmCheckDims panics on inconsistent leading dimensions, matching the
// historical Gemm contract.
func gemmCheckDims(op string, m, n, k, lda, ldb, ldc int) {
	if lda < k || ldb < n || ldc < n {
		panic(fmt.Sprintf("blas: %s bad leading dims lda=%d k=%d ldb=%d n=%d ldc=%d", op, lda, k, ldb, n, ldc))
	}
}

// GemmBlocked computes C ← C + A·B like Gemm and is the dispatched
// Level-3 entry every runtime hot path calls: problems above the size
// cutoff run the packed register-blocked kernel with arenas from the
// package pack pool, tiny ones the reference loop. Results are
// bit-identical to Gemm for all finite inputs (the name is historical —
// the blocking is now the packed kernel's mc/kc/nc hierarchy).
func GemmBlocked(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	gemmCheckDims("GemmBlocked", m, n, k, lda, ldb, ldc)
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if 2*m*n*k < packedMinFlops {
		Gemm(m, n, k, a, lda, b, ldb, c, ldc)
		return
	}
	gemmPacked(m, n, k, a, lda, b, ldb, c, ldc, packPool, false)
}

// GemmPacked computes C ← C + A·B with the packed register-blocked
// kernel unconditionally, drawing packing arenas from pool (nil means
// allocate). It is the explicit entry for callers that manage their own
// arenas; GemmBlocked is the size-dispatched form.
func GemmPacked(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, pool *PackPool) {
	gemmCheckDims("GemmPacked", m, n, k, lda, ldb, ldc)
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	gemmPacked(m, n, k, a, lda, b, ldb, c, ldc, pool, false)
}

// GemmSub computes C ← C − A·B through the same dispatched kernels as
// GemmBlocked: packing negates A on the fly (an exact sign flip), so the
// subtraction costs no extra pass and no scratch matrix. It is the panel
// update of lu.Factor.
func GemmSub(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	gemmCheckDims("GemmSub", m, n, k, lda, ldb, ldc)
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if 2*m*n*k < packedMinFlops {
		for i := 0; i < m; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for p := 0; p < k; p++ {
				fmaAxpy(-arow[p], b[p*ldb:p*ldb+n], crow)
			}
		}
		return
	}
	gemmPacked(m, n, k, a, lda, b, ldb, c, ldc, packPool, true)
}

// gemmPacked is the packed GEMM driver: the three blocking loops of the
// Goto structure. For each (jc, pc) slab B is packed once; for each ic
// the A slab is packed and the macro-kernel sweeps micro-tiles. The pc
// loop runs outermost-but-one in ascending order, so every C element
// receives its k terms in ascending order across slabs — the
// bit-exactness invariant (stores between slabs are exact).
func gemmPacked(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, pool *PackPool, neg bool) {
	nc := ncBlock
	if nc > n {
		nc = n
	}
	kc := kcBlock
	if kc > k {
		kc = k
	}
	mc := mcBlock
	if mc > m {
		mc = m
	}
	bbuf := pool.Get(packSizeB(kc, nc))
	abuf := pool.Get(packSizeA(mc, kc))
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kb := min(kc, k-pc)
			packB(kb, nb, b[pc*ldb+jc:], ldb, bbuf)
			for ic := 0; ic < m; ic += mc {
				mb := min(mc, m-ic)
				packA(mb, kb, a[ic*lda+pc:], lda, abuf, neg)
				macroKernel(mb, nb, kb, abuf, bbuf, c[ic*ldc+jc:], ldc)
			}
		}
	}
	pool.Put(abuf)
	pool.Put(bbuf)
}

// macroKernel sweeps the micro-kernel over a packed mb×kb A slab and a
// packed kb×nb B slab, updating the mb×nb C block at stride ldc. Full
// mr×nr interior tiles run the register kernel directly; edge tiles
// stage through an exact scratch tile.
func macroKernel(mb, nb, kb int, abuf, bbuf []float64, c []float64, ldc int) {
	k := &kern
	mr, nr := k.mr, k.nr
	for j0 := 0; j0 < nb; j0 += nr {
		jw := min(nr, nb-j0)
		bp := bbuf[j0*kb:]
		for i0 := 0; i0 < mb; i0 += mr {
			iw := min(mr, mb-i0)
			ap := abuf[i0*kb:]
			cp := c[i0*ldc+j0:]
			if iw == mr && jw == nr {
				k.run(kb, ap, bp, cp, ldc)
			} else {
				microKernelEdge(k, kb, ap, bp, cp, ldc, iw, jw)
			}
		}
	}
}

// BlockUpdate computes Cij ← Cij + Aik·Bkj for three q×q blocks, the unit
// of computation of the whole paper (cost w = q³·τ_a). It dispatches
// through GemmBlocked, so paper-scale blocks (q = 80, 100) run the
// packed register kernel.
func BlockUpdate(cij, aik, bkj []float64, q int) {
	if len(cij) < q*q || len(aik) < q*q || len(bkj) < q*q {
		panic("blas: BlockUpdate undersized operand")
	}
	GemmBlocked(q, q, q, aik, q, bkj, q, cij, q)
}

// chunkStackArenas is how many packed-B arena headers UpdateChunk keeps
// on its stack; wider chunks (µ beyond it) allocate the header slice.
const chunkStackArenas = 8

// UpdateChunk applies Cij ← Cij + Ai·Bj to every block of a rows×cols
// chunk — the per-step work of all three runtimes — packing every
// operand block of the set exactly once: each Bj into its own pooled
// arena up front, each Ai as its row of the sweep starts (rows + cols
// packs instead of rows·(1+cols)). cBlocks is row-major (rows·cols),
// aBlks has rows entries, bBlks has cols entries, all q×q. Results are
// bit-identical to calling BlockUpdate per block.
//
// B used to be re-packed per block on the theory that its copy-packing
// is the cheap one. Measured on the serving stack (n = 2048, q = 256,
// µ = 4) it was the dear one: the strided walk over a cache-cold block
// took 210 µs against 110 µs for the A transpose, 10.7 % of all CPU.
//
// Transient arena use is cols + 1 packed blocks (µ + 1 per compute
// core). It is kernel scratch outside the paper's m: the cluster's
// summed-footprint memory gate (core.ChunkFootprint) counts payload
// blocks only, and DESIGN.md records the difference.
func UpdateChunk(cBlocks, aBlks, bBlks [][]float64, rows, cols, q int) {
	if rows <= 0 || cols <= 0 {
		return
	}
	if 2*q*q*q < packedMinFlops || q > kcBlock {
		// Tiny blocks: reference path per block. Oversized blocks
		// (q > kc): per-block dispatch, which re-slabs k correctly.
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				BlockUpdate(cBlocks[i*cols+j], aBlks[i], bBlks[j], q)
			}
		}
		return
	}
	var stack [chunkStackArenas][]float64
	bbufs := stack[:]
	if cols > len(bbufs) {
		bbufs = make([][]float64, cols)
	}
	bbufs = bbufs[:cols]
	for j := range bbufs {
		bbufs[j] = packPool.Get(packSizeB(q, q))
		packB(q, q, bBlks[j], q, bbufs[j])
	}
	abuf := packPool.Get(packSizeA(q, q))
	for i := 0; i < rows; i++ {
		packA(q, q, aBlks[i], q, abuf, false)
		for j := 0; j < cols; j++ {
			macroKernel(q, q, q, abuf, bbufs[j], cBlocks[i*cols+j], q)
		}
	}
	packPool.Put(abuf)
	for _, bbuf := range bbufs {
		packPool.Put(bbuf)
	}
}
