package blas

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveGemm is the oracle: C += A·B with no tricks.
func naiveGemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*lda+p] * b[p*ldb+j]
			}
			c[i*ldc+j] += s
		}
	}
}

func fill(n int, seed uint64) []float64 {
	v := make([]float64, n)
	s := seed*2862933555777941757 + 3037000493
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>11))/(1<<52) - 1
	}
	return v
}

func maxDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if x := math.Abs(a[i] - b[i]); x > d {
			d = x
		}
	}
	return d
}

func TestGemmMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9}, {16, 16, 16}, {13, 17, 11},
	} {
		a := fill(tc.m*tc.k, 1)
		b := fill(tc.k*tc.n, 2)
		c1 := fill(tc.m*tc.n, 3)
		c2 := append([]float64(nil), c1...)
		Gemm(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, c1, tc.n)
		naiveGemm(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, c2, tc.n)
		if d := maxDiff(c1, c2); d > 1e-12 {
			t.Fatalf("%+v: Gemm differs from naive by %g", tc, d)
		}
	}
}

func TestGemmBlockedMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{64, 64, 64}, {65, 63, 70}, {80, 80, 80}, {100, 100, 100}, {1, 200, 1},
	} {
		a := fill(tc.m*tc.k, 4)
		b := fill(tc.k*tc.n, 5)
		c1 := fill(tc.m*tc.n, 6)
		c2 := append([]float64(nil), c1...)
		GemmBlocked(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, c1, tc.n)
		naiveGemm(tc.m, tc.n, tc.k, a, tc.k, b, tc.n, c2, tc.n)
		if d := maxDiff(c1, c2); d > 1e-10 {
			t.Fatalf("%+v: GemmBlocked differs from naive by %g", tc, d)
		}
	}
}

func TestGemmLeadingDimensions(t *testing.T) {
	// operate on a 2x2 corner of a 4x4 buffer
	a := fill(16, 7)
	b := fill(16, 8)
	c1 := fill(16, 9)
	c2 := append([]float64(nil), c1...)
	Gemm(2, 2, 2, a, 4, b, 4, c1, 4)
	naiveGemm(2, 2, 2, a, 4, b, 4, c2, 4)
	if d := maxDiff(c1, c2); d > 1e-13 {
		t.Fatalf("leading-dimension handling broken: %g", d)
	}
	// elements outside the 2x2 corner must be untouched
	for i := 0; i < 16; i++ {
		r, cc := i/4, i%4
		if (r >= 2 || cc >= 2) && c1[i] != c2[i] {
			t.Fatalf("element (%d,%d) outside the target was modified", r, cc)
		}
	}
}

func TestGemmPanicsOnBadLda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for lda < k")
		}
	}()
	Gemm(2, 2, 4, make([]float64, 8), 2, make([]float64, 8), 2, make([]float64, 4), 2)
}

func TestBlockUpdate(t *testing.T) {
	q := 10
	a := fill(q*q, 11)
	b := fill(q*q, 12)
	c1 := fill(q*q, 13)
	c2 := append([]float64(nil), c1...)
	BlockUpdate(c1, a, b, q)
	naiveGemm(q, q, q, a, q, b, q, c2, q)
	if d := maxDiff(c1, c2); d > 1e-11 {
		t.Fatalf("BlockUpdate differs by %g", d)
	}
}

func TestBlockUpdatePanicsOnShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for undersized operand")
		}
	}()
	BlockUpdate(make([]float64, 3), make([]float64, 4), make([]float64, 4), 2)
}

func diagDominant(n int, seed uint64) []float64 {
	a := fill(n*n, seed)
	for i := 0; i < n; i++ {
		a[i*n+i] = float64(n) + 2
	}
	return a
}

// luCombine multiplies the unit-lower and upper factors packed in lu (as
// produced by Getf2) and writes L·U into out, both n×n with the given
// leading dimensions.
func luCombine(lu []float64, n, lda int, out []float64, ldo int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			kmax := min(i, j+1) // L(i,k) nonzero for k<=i; treat k==i via unit diag
			for k := 0; k < kmax; k++ {
				s += lu[i*lda+k] * lu[k*lda+j]
			}
			if i <= j {
				s += lu[i*lda+j] // unit diagonal of L times U(i,j)
			}
			out[i*ldo+j] = s
		}
	}
}

func TestGetf2Reconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 32} {
		orig := diagDominant(n, uint64(n))
		a := append([]float64(nil), orig...)
		if bad := Getf2(a, n, n); bad >= 0 {
			t.Fatalf("n=%d: unexpected zero pivot at %d", n, bad)
		}
		prod := make([]float64, n*n)
		luCombine(a, n, n, prod, n)
		if d := maxDiff(prod, orig); d > 1e-9 {
			t.Fatalf("n=%d: |LU - A| = %g", n, d)
		}
	}
}

func TestGetf2ReportsZeroPivot(t *testing.T) {
	a := []float64{0, 1, 1, 0}
	if bad := Getf2(a, 2, 2); bad != 0 {
		t.Fatalf("zero pivot reported at %d, want 0", bad)
	}
}

func TestTrsmLowerLeft(t *testing.T) {
	n, m := 6, 4
	l := diagDominant(n, 21)
	// make l unit lower triangular explicitly
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if i == j {
				l[i*n+j] = 1
			} else {
				l[i*n+j] = 0
			}
		}
	}
	x := fill(n*m, 22)
	b := make([]float64, n*m) // B = L·X
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for k := 0; k <= i; k++ {
				lv := l[i*n+k]
				if k == i {
					lv = 1
				}
				s += lv * x[k*m+j]
			}
			b[i*m+j] = s
		}
	}
	TrsmLowerLeft(n, m, l, n, b, m)
	if d := maxDiff(b, x); d > 1e-10 {
		t.Fatalf("TrsmLowerLeft residual %g", d)
	}
}

func TestTrsmUpperRight(t *testing.T) {
	n, m := 5, 7
	u := diagDominant(n, 31)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			u[i*n+j] = 0
		}
	}
	x := fill(m*n, 32)
	b := make([]float64, m*n) // B = X·U
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += x[i*n+k] * u[k*n+j]
			}
			b[i*n+j] = s
		}
	}
	TrsmUpperRight(m, n, u, n, b, n)
	if d := maxDiff(b, x); d > 1e-10 {
		t.Fatalf("TrsmUpperRight residual %g", d)
	}
}

// Property: Gemm agrees with the naive triple loop on random small shapes.
func TestQuickGemm(t *testing.T) {
	f := func(mRaw, nRaw, kRaw uint8, seed uint64) bool {
		m := int(mRaw%8) + 1
		n := int(nRaw%8) + 1
		k := int(kRaw%8) + 1
		a := fill(m*k, seed)
		b := fill(k*n, seed+1)
		c1 := fill(m*n, seed+2)
		c2 := append([]float64(nil), c1...)
		Gemm(m, n, k, a, k, b, n, c1, n)
		naiveGemm(m, n, k, a, k, b, n, c2, n)
		return maxDiff(c1, c2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LU factors of diagonally dominant matrices reconstruct the
// input.
func TestQuickGetf2(t *testing.T) {
	f := func(nRaw uint8, seed uint64) bool {
		n := int(nRaw%12) + 1
		orig := diagDominant(n, seed)
		a := append([]float64(nil), orig...)
		if Getf2(a, n, n) >= 0 {
			return false
		}
		prod := make([]float64, n*n)
		luCombine(a, n, n, prod, n)
		return maxDiff(prod, orig) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
