package blas

import (
	"math"
	"math/rand"
	"testing"
)

// naiveBilinear is the O(q²) reference for sᵀ·M·r, evaluated in the
// simplest possible order.
// maxAbs returns max_i |m_i|, the norm the fused kernels report.
func maxAbs(m []float64) float64 {
	mx := 0.0
	for _, v := range m {
		mx = math.Max(mx, math.Abs(v))
	}
	return mx
}

func naiveBilinear(m, s, r []float64, q int) float64 {
	f := 0.0
	for i := 0; i < q; i++ {
		rowdot := 0.0
		for j := 0; j < q; j++ {
			rowdot += m[i*q+j] * r[j]
		}
		f += s[i] * rowdot
	}
	return f
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestSignVecDeterministicAndSigned pins SignVec: the same seed always
// draws the same stream, different seeds diverge, and every element is
// exactly ±1.
func TestSignVecDeterministicAndSigned(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		SignVec(a, 12345)
		SignVec(b, 12345)
		SignVec(c, 54321)
		same := true
		for i := range a {
			if a[i] != 1 && a[i] != -1 {
				t.Fatalf("n=%d: a[%d] = %v, want ±1", n, i, a[i])
			}
			if a[i] != b[i] {
				t.Fatalf("n=%d: same seed diverged at %d", n, i)
			}
			if a[i] != c[i] {
				same = false
			}
		}
		if n >= 64 && same {
			t.Fatalf("n=%d: different seeds drew identical streams", n)
		}
	}
}

// TestBilinearKernelsMatchNaive checks the fused two-round kernels
// against the naive reference across shapes that exercise the unrolled
// bodies and the scalar tails.
func TestBilinearKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, q := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17, 33} {
		m := randVec(rng, q*q)
		s1, s2 := make([]float64, q), make([]float64, q)
		r1, r2 := make([]float64, q), make([]float64, q)
		SignVec(s1, 1)
		SignVec(s2, 2)
		SignVec(r1, 3)
		SignVec(r2, 4)

		w1, w2 := naiveBilinear(m, s1, r1, q), naiveBilinear(m, s2, r2, q)
		tol := 1e-12 * (1 + math.Abs(w1) + math.Abs(w2) + float64(q*q))

		f1, f2 := BilinearForms2(m, s1, r1, s2, r2, q)
		if math.Abs(f1-w1) > tol || math.Abs(f2-w2) > tol {
			t.Fatalf("q=%d BilinearForms2 = (%v, %v), want (%v, %v)", q, f1, f2, w1, w2)
		}

		g1, g2, mx := BilinearForms2Max(m, s1, r1, s2, r2, q)
		if math.Abs(g1-w1) > tol || math.Abs(g2-w2) > tol {
			t.Fatalf("q=%d BilinearForms2Max = (%v, %v), want (%v, %v)", q, g1, g2, w1, w2)
		}
		if want := maxAbs(m); mx != want {
			t.Fatalf("q=%d BilinearForms2Max max = %v, want %v", q, mx, want)
		}
	}
}

// TestProjectionKernelsMatchNaive checks the cache builders: MatVec2Max
// against row-by-row dot products and VecMat2Max against column
// accumulation, both with the fused max.
func TestProjectionKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []int{1, 2, 3, 5, 8, 17, 32} {
		m := randVec(rng, q*q)
		x1, x2 := make([]float64, q), make([]float64, q)
		SignVec(x1, 5)
		SignVec(x2, 6)
		wantMax := maxAbs(m)
		tol := 1e-12 * float64(1+q)

		y1, y2 := make([]float64, q), make([]float64, q)
		if mx := MatVec2Max(y1, y2, m, x1, x2, q); mx != wantMax {
			t.Fatalf("q=%d MatVec2Max max = %v, want %v", q, mx, wantMax)
		}
		for i := 0; i < q; i++ {
			var w1, w2 float64
			for j := 0; j < q; j++ {
				w1 += m[i*q+j] * x1[j]
				w2 += m[i*q+j] * x2[j]
			}
			if math.Abs(y1[i]-w1) > tol*(1+math.Abs(w1)) || math.Abs(y2[i]-w2) > tol*(1+math.Abs(w2)) {
				t.Fatalf("q=%d MatVec2Max row %d = (%v, %v), want (%v, %v)", q, i, y1[i], y2[i], w1, w2)
			}
		}

		u1, u2 := make([]float64, q), make([]float64, q)
		// Dirty scratch: the kernel must zero its outputs itself.
		u1[0], u2[0] = 99, -99
		if mx := VecMat2Max(u1, u2, m, x1, x2, q); mx != wantMax {
			t.Fatalf("q=%d VecMat2Max max = %v, want %v", q, mx, wantMax)
		}
		for j := 0; j < q; j++ {
			var w1, w2 float64
			for i := 0; i < q; i++ {
				w1 += x1[i] * m[i*q+j]
				w2 += x2[i] * m[i*q+j]
			}
			if math.Abs(u1[j]-w1) > tol*(1+math.Abs(w1)) || math.Abs(u2[j]-w2) > tol*(1+math.Abs(w2)) {
				t.Fatalf("q=%d VecMat2Max col %d = (%v, %v), want (%v, %v)", q, j, u1[j], u2[j], w1, w2)
			}
		}

		if got, want := Dot(u1, y1, q), naiveDot(u1, y1, q); math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("q=%d Dot = %v, want %v", q, got, want)
		}
	}
}

func naiveDot(x, y []float64, q int) float64 {
	s := 0.0
	for i := 0; i < q; i++ {
		s += x[i] * y[i]
	}
	return s
}

// TestCheckRefusesNonFiniteCandidate pins the Inf≤Inf hole: a candidate
// carrying Inf or NaN inflates the magnitude bound to +Inf, under which
// any residual satisfies d ≤ lim — the verifier must refuse outright
// rather than accept an unbounded tolerance.
func TestCheckRefusesNonFiniteCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const q, steps = 8, 2
	cand, old, a, b := randTile(rng, q, steps, false)
	v := NewTileVerifier(3)
	if !v.Check(cand, old, a, b, q, false, 2, 0) {
		t.Fatal("honest tile rejected before corruption")
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		mut := append([]float64(nil), cand...)
		mut[q+3] = bad
		if v.Check(mut, old, a, b, q, false, 2, 0) {
			t.Fatalf("candidate with %v accepted", bad)
		}
	}
}
