package lu

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// Factor performs the right-looking block LU factorization of §7 in place
// on the n×n dense matrix a, with panel width panel (the paper's µ·q
// coefficients). On return a holds the packed factors: the strict lower
// triangle is L (unit diagonal implied) and the upper triangle including
// the diagonal is U. No pivoting is performed — the paper's scheme moves
// pivot blocks whole — so callers must supply matrices for which unpivoted
// elimination is stable (tests use diagonally dominant inputs).
//
// The step structure mirrors Figure 9 exactly:
//
//	(a) factor the panel×panel pivot matrix,
//	(b) vertical panel:   rows    x ← x·U⁻¹,
//	(c) horizontal panel: columns y ← L⁻¹·y,
//	(d) rank-panel update of the core: A22 ← A22 − A21·A12.
func Factor(a *matrix.Dense, panel int) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("lu: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	n := a.Rows
	if panel <= 0 || n%panel != 0 {
		return fmt.Errorf("lu: panel %d must divide n=%d", panel, n)
	}
	lda := a.Cols
	for k0 := 0; k0 < n; k0 += panel {
		pb := panel
		// (a) factor pivot block in place
		piv := a.Data[k0*lda+k0:]
		if bad := blas.Getf2(piv, pb, lda); bad >= 0 {
			return fmt.Errorf("lu: zero pivot at column %d", k0+bad)
		}
		rem := n - k0 - pb
		if rem == 0 {
			break
		}
		// (b) vertical panel: A21 ← A21 · U11⁻¹
		blas.TrsmUpperRight(rem, pb, piv, lda, a.Data[(k0+pb)*lda+k0:], lda)
		// (c) horizontal panel: A12 ← L11⁻¹ · A12
		blas.TrsmLowerLeft(pb, rem, piv, lda, a.Data[k0*lda+k0+pb:], lda)
		// (d) core update: A22 ← A22 − A21·A12. GemmSub negates A while
		// packing (no scratch panel) and runs the packed register
		// kernel.
		blas.GemmSub(rem, rem, pb,
			a.Data[(k0+pb)*lda+k0:], lda,
			a.Data[k0*lda+k0+pb:], lda,
			a.Data[(k0+pb)*lda+k0+pb:], lda)
	}
	return nil
}

// ExtractLU splits packed factors into explicit L (unit lower) and U
// (upper) matrices, for verification.
func ExtractLU(a *matrix.Dense) (l, u *matrix.Dense) {
	n := a.Rows
	l = matrix.NewDense(n, n)
	u = matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := 0; j < n; j++ {
			if j < i {
				l.Set(i, j, a.At(i, j))
			} else {
				u.Set(i, j, a.At(i, j))
			}
		}
	}
	return l, u
}

// Residual returns the max-norm of A − L·U given the original matrix and
// the packed factors.
func Residual(orig, packed *matrix.Dense) float64 {
	l, u := ExtractLU(packed)
	prod := matrix.NewDense(orig.Rows, orig.Cols)
	matrix.MulNaive(prod, l, u)
	return orig.MaxDiff(prod)
}

// DiagonallyDominant fills a with a deterministic pattern made strictly
// diagonally dominant so unpivoted LU is stable.
func DiagonallyDominant(a *matrix.Dense, seed int64) {
	matrix.DeterministicFill(a, seed)
	n := a.Rows
	for i := 0; i < n; i++ {
		a.Set(i, i, float64(n)+2)
	}
}
