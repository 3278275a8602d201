// Package blas provides the compute kernels that stand in for the
// ATLAS-generated Level-3 BLAS routines the paper relies on (§2.1: "the
// atomic elements that we manipulate are ... square blocks of size q×q.
// This is to harness the power of Level 3 BLAS routines").
//
// The kernels operate on row-major float64 slices. The hot path is a
// Goto-style packed GEMM (pack.go, microkernel.go, dispatch.go): A is
// packed into mr-row panels, B into nr-column panels, and a
// register-blocked micro-kernel — AVX2+FMA assembly on amd64, a
// math.FMA fallback elsewhere — streams the packed panels. Gemm below
// is the sequential reference all packed and parallel kernels are
// bit-exact against: every C element accumulates its k terms in
// ascending order as one fused-multiply-add chain, on every path.
//
// These kernels still do not compete with vendor BLAS, but the packed
// kernel runs several times faster than the historical axpy loop, which
// is what makes the paper's cubic-compute versus quadratic-communication
// asymmetry visible in the real runtimes.
package blas

// Gemm computes C ← C + A·B where A is m×k, B is k×n and C is m×n, all
// row-major with the given leading dimensions (lda ≥ k, ldb ≥ n,
// ldc ≥ n). It is the sequential reference kernel: the i-k-j loop with a
// fused-multiply-add axpy inner loop, one rounding per accumulation
// step, k strictly ascending per C element. The dense inner loop has no
// data-dependent branches (no zero skipping — see GemmZeroSkip for the
// sparsity-aware fallback), so its timing is shape-only.
func Gemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	gemmCheckDims("Gemm", m, n, k, lda, ldb, ldc)
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for p := 0; p < k; p++ {
			fmaAxpy(arow[p], b[p*ldb:p*ldb+n], crow)
		}
	}
}

// GemmZeroSkip computes C ← C + A·B like Gemm but skips zero A
// elements, using the historical unfused multiply-add arithmetic. It is
// deliberately NOT bit-compatible with Gemm/GemmBlocked: it exists for
// the triangular/LU helpers that exploit structural zeros (TrsmLowerLeft
// routes its unit-lower updates through it) and for callers that feed
// genuinely sparse blocks, where skipping beats streaming. Dense hot
// paths must use Gemm or GemmBlocked, whose timing is data-independent.
func GemmZeroSkip(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	gemmCheckDims("GemmZeroSkip", m, n, k, lda, ldb, ldc)
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for p := 0; p < k; p++ {
			aip := arow[p]
			if aip == 0 {
				continue
			}
			axpy(aip, b[p*ldb:p*ldb+n], crow)
		}
	}
}

// axpy computes y ← y + alpha·x with the historical unfused multiply-add
// (separate rounding for the product and the sum). GemmZeroSkip and the
// triangular solvers keep this arithmetic; the dense kernels use the
// fused fmaAxpy chain.
func axpy(alpha float64, x, y []float64) {
	n := len(y)
	if len(x) < n {
		n = len(x)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Getf2 factors the n×n row-major matrix a in place as A = L·U with unit
// lower-triangular L and upper-triangular U, without pivoting. The paper's
// LU study (§7) works on diagonally dominant pivot blocks where unpivoted
// elimination is stable; callers that need robustness should pre-condition
// (tests use diagonally dominant inputs).
//
// It returns the index of the first (near-)zero pivot, or -1 on success.
func Getf2(a []float64, n, lda int) int {
	for j := 0; j < n; j++ {
		p := a[j*lda+j]
		if p == 0 {
			return j
		}
		inv := 1 / p
		for i := j + 1; i < n; i++ {
			lij := a[i*lda+j] * inv
			a[i*lda+j] = lij
			if lij == 0 {
				continue
			}
			arow := a[i*lda : i*lda+n]
			jrow := a[j*lda : j*lda+n]
			for k := j + 1; k < n; k++ {
				arow[k] -= lij * jrow[k]
			}
		}
	}
	return -1
}

// TrsmLowerLeft solves L·X = B in place, where L is the unit lower triangle
// stored in l (n×n, row-major, lda) and B is n×m stored in b (ldb). On
// return b holds X = L⁻¹·B. This is the horizontal-panel update of §7.1
// step 3 ("a column y ... replaced by L⁻¹y").
//
// Row i's update is the row-vector product bᵢ ← bᵢ − l[i,0:i]·B[0:i,:],
// routed through GemmZeroSkip with the negated L row so the structural
// zeros of sparse/unit-lower factors are skipped — this is the sparsity
// fallback the dense kernels dropped. Negating an element is exact, so
// the arithmetic is the historical mul-then-add sequence unchanged.
func TrsmLowerLeft(n, m int, l []float64, lda int, b []float64, ldb int) {
	if n <= 0 || m <= 0 {
		return
	}
	neg := packPool.Get(n)
	for i := 1; i < n; i++ {
		lrow := l[i*lda : i*lda+i]
		nrow := neg[:i]
		for k, v := range lrow {
			nrow[k] = -v
		}
		GemmZeroSkip(1, m, i, nrow, i, b, ldb, b[i*ldb:], ldb)
	}
	// unit diagonal: no division
	packPool.Put(neg)
}

// trsmColBlock is the column-block width of TrsmUpperRight: small enough
// that a U row segment plus the B rows in flight stay cache-resident,
// large enough that the streaming update amortizes the strided
// within-block solve.
const trsmColBlock = 32

// TrsmUpperRight solves X·U = B in place, where U is the upper triangle of
// u (n×n, row-major, lda) and B is m×n stored in b (ldb). On return b holds
// X = B·U⁻¹. This is the vertical-panel update of §7.1 step 2 ("a row x ...
// replaced by xU⁻¹").
//
// The solve proceeds over column blocks of width trsmColBlock: each block
// is first updated by the already-solved columns with row-streamed
// multiply-adds (contiguous U row segments — the historical version
// walked U columns with an O(n) stride per element), then solved within
// the block. Every B element still subtracts its k terms in ascending
// order and divides last, so results are bit-identical to the historical
// element-by-element loop (pinned by TestTrsmUpperRightMatchesReference).
func TrsmUpperRight(m, n int, u []float64, lda int, b []float64, ldb int) {
	for j0 := 0; j0 < n; j0 += trsmColBlock {
		jw := min(trsmColBlock, n-j0)
		// Update phase: B[:, j0:j0+jw] −= B[:, k]·U[k, j0:j0+jw] for all
		// solved columns k < j0, k ascending per element.
		for i := 0; i < m; i++ {
			bi := b[i*ldb : i*ldb+n]
			bij := bi[j0 : j0+jw]
			for k := 0; k < j0; k++ {
				bik := bi[k]
				urow := u[k*lda+j0 : k*lda+j0+jw]
				for j := range bij {
					bij[j] -= bik * urow[j]
				}
			}
		}
		// Solve phase within the block: same recurrence as the historical
		// loop, restricted to k in [j0, j).
		for i := 0; i < m; i++ {
			bi := b[i*ldb : i*ldb+n]
			for j := j0; j < j0+jw; j++ {
				s := bi[j]
				for k := j0; k < j; k++ {
					s -= bi[k] * u[k*lda+j]
				}
				bi[j] = s / u[j*lda+j]
			}
		}
	}
}
