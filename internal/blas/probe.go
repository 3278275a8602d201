package blas

import "math"

// The two-sided Freivalds probe and its one acceptance rule. The probe
// is memory-bound (2 flops per 8-byte element read), while the worker's
// compute kernel is an O(q³)/O(q²) compute-bound SIMD routine, so
// verification overhead is decided by how few bytes the verifier
// touches per tile, not by its flop count.
//
// With left and right ±1 probe vectors s and r,
//
//	sᵀ·cand·r  ==  sᵀ·old·r + Σ_k (sᵀ·A_k)·(B_k·r)
//
// holds exactly in real arithmetic for a correct tile, and both operand
// projections are tile-independent: u = sᵀ·A(bi,k) is shared by every
// tile in block-row bi, y = B(k,bj)·r by every tile in block-column bj.
// A verifying master caches them per job, reducing each tile check to one
// sweep over the candidate and one over the old tile — the two blocks
// that cannot be skipped — plus O(steps·q) dot products of cached
// vectors; TileVerifier builds them afresh per check. These kernels
// compute both probe rounds of a pair in a single sweep (the second
// round costs a register set, not a second pass) and fold the
// max-magnitude scan for the acceptance tolerance into the same pass.

// SignVec fills r with ±1 signs drawn from a splitmix64 stream seeded by
// seed: deterministic, so a failing probe is reproducible from the seed.
func SignVec(r []float64, seed uint64) {
	var bits uint64
	for i := range r {
		if i%64 == 0 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			bits = z ^ (z >> 31)
		}
		if bits&1 == 0 {
			r[i] = 1
		} else {
			r[i] = -1
		}
		bits >>= 1
	}
}

// MatVec2Max computes y1 = M·x1 and y2 = M·x2 for a q×q row-major block
// in one sweep, returning max|M| from the same pass — the right-side
// cache builder (y = B·r) plus the operand norm for the tolerance.
func MatVec2Max(y1, y2, m, x1, x2 []float64, q int) float64 {
	mx := 0.0
	x1, x2 = x1[:q], x2[:q]
	for i := 0; i < q; i++ {
		row := m[i*q : i*q+q]
		var a0, a1, b0, b1 float64
		j := 0
		for ; j+2 <= q; j += 2 {
			v0, v1 := row[j], row[j+1]
			if a := math.Abs(v0); a > mx {
				mx = a
			}
			if a := math.Abs(v1); a > mx {
				mx = a
			}
			a0 += v0 * x1[j]
			a1 += v1 * x1[j+1]
			b0 += v0 * x2[j]
			b1 += v1 * x2[j+1]
		}
		sa, sb := a0+a1, b0+b1
		for ; j < q; j++ {
			v := row[j]
			if a := math.Abs(v); a > mx {
				mx = a
			}
			sa += v * x1[j]
			sb += v * x2[j]
		}
		y1[i] = sa
		y2[i] = sb
	}
	return mx
}

// VecMat2Max computes u1 = s1ᵀ·M and u2 = s2ᵀ·M for a q×q row-major
// block in one sweep (row-major friendly: each row is scaled by its sign
// and accumulated into u), returning max|M| — the left-side cache
// builder (u = sᵀ·A) plus the operand norm.
func VecMat2Max(u1, u2, m, s1, s2 []float64, q int) float64 {
	mx := 0.0
	u1, u2 = u1[:q], u2[:q]
	for j := range u1 {
		u1[j] = 0
		u2[j] = 0
	}
	for i := 0; i < q; i++ {
		row := m[i*q : i*q+q]
		c1, c2 := s1[i], s2[i]
		j := 0
		for ; j+2 <= q; j += 2 {
			v0, v1 := row[j], row[j+1]
			if a := math.Abs(v0); a > mx {
				mx = a
			}
			if a := math.Abs(v1); a > mx {
				mx = a
			}
			u1[j] += c1 * v0
			u1[j+1] += c1 * v1
			u2[j] += c2 * v0
			u2[j+1] += c2 * v1
		}
		for ; j < q; j++ {
			v := row[j]
			if a := math.Abs(v); a > mx {
				mx = a
			}
			u1[j] += c1 * v
			u2[j] += c2 * v
		}
	}
	return mx
}

// BilinearForms2 evaluates the two bilinear forms f1 = s1ᵀ·M·r1 and
// f2 = s2ᵀ·M·r2 over a q×q row-major block in one sweep — the candidate
// half of a fused two-round probe. No magnitude scan: a candidate's
// tolerance contribution is bounded by the old tile and the operand
// norms (an honest tile cannot exceed them, and a dishonest one that
// does blows the residual anyway), so the pure-muladd kernel runs at
// streaming bandwidth.
func BilinearForms2(m, s1, r1, s2, r2 []float64, q int) (f1, f2 float64) {
	r1, r2 = r1[:q], r2[:q]
	for i := 0; i < q; i++ {
		row := m[i*q : i*q+q]
		var a0, a1, a2, a3, b0, b1, b2, b3 float64
		j := 0
		for ; j+4 <= q; j += 4 {
			v0, v1, v2, v3 := row[j], row[j+1], row[j+2], row[j+3]
			a0 += v0 * r1[j]
			a1 += v1 * r1[j+1]
			a2 += v2 * r1[j+2]
			a3 += v3 * r1[j+3]
			b0 += v0 * r2[j]
			b1 += v1 * r2[j+1]
			b2 += v2 * r2[j+2]
			b3 += v3 * r2[j+3]
		}
		sa, sb := (a0+a1)+(a2+a3), (b0+b1)+(b2+b3)
		for ; j < q; j++ {
			sa += row[j] * r1[j]
			sb += row[j] * r2[j]
		}
		f1 += s1[i] * sa
		f2 += s2[i] * sb
	}
	return f1, f2
}

// BilinearForms2Max is BilinearForms2 with max|M| folded into the sweep
// — the old-tile half of a fused two-round probe, where the magnitude is
// needed for the acceptance tolerance and the tile should still be read
// only once.
func BilinearForms2Max(m, s1, r1, s2, r2 []float64, q int) (f1, f2, mx float64) {
	r1, r2 = r1[:q], r2[:q]
	for i := 0; i < q; i++ {
		row := m[i*q : i*q+q]
		var a0, a1, b0, b1 float64
		j := 0
		for ; j+2 <= q; j += 2 {
			v0, v1 := row[j], row[j+1]
			if a := math.Abs(v0); a > mx {
				mx = a
			}
			if a := math.Abs(v1); a > mx {
				mx = a
			}
			a0 += v0 * r1[j]
			a1 += v1 * r1[j+1]
			b0 += v0 * r2[j]
			b1 += v1 * r2[j+1]
		}
		sa, sb := a0+a1, b0+b1
		for ; j < q; j++ {
			v := row[j]
			if a := math.Abs(v); a > mx {
				mx = a
			}
			sa += v * r1[j]
			sb += v * r2[j]
		}
		f1 += s1[i] * sa
		f2 += s2[i] * sb
	}
	return f1, f2, mx
}

// Dot returns xᵀ·y over the first q elements — combining a cached left
// projection with a cached right projection into one reference term.
func Dot(x, y []float64, q int) float64 {
	x, y = x[:q], y[:q]
	s := 0.0
	for i := 0; i < q; i++ {
		s += x[i] * y[i]
	}
	return s
}

// ProbeAccepts is the acceptance rule of one fused pair of two-sided
// rounds: it evaluates sᵢᵀ·cand·rᵢ and sᵢᵀ·old·rᵢ for both rounds and
// accepts when each residual against refᵢ = Σ_k (sᵢᵀ·A_k)·(B_k·rᵢ)
// stays within tol·(1 + q²·(2·‖old‖ + (q+1)·mag)), where mag =
// Σ_k ‖A_k‖·‖B_k‖ over max-norms. Every intermediate the two evaluation
// orders flow through is bounded by q²·max-norm products, so the limit
// dominates the drift of any honest chain by orders of magnitude while
// staying far below the smallest value-moving corruption of an element.
// The candidate needs no magnitude scan of its own: an honest candidate
// is bounded elementwise by ‖old‖ + q·mag, which the 2·‖old‖ and q+1
// terms cover, and a dishonest one large enough to exceed the bound
// blows the residual. A non-finite candidate makes the residual Inf or
// NaN, which fails the compare; a non-finite limit (old or an operand
// holds an Inf or NaN, or the norms overflow) refuses outright, since
// Inf ≤ Inf must never read as acceptance.
func ProbeAccepts(cand, old, s1, r1, s2, r2 []float64, ref1, ref2, mag float64, q int, tol float64) bool {
	fC1, fC2 := BilinearForms2(cand, s1, r1, s2, r2, q)
	fO1, fO2, maxO := BilinearForms2Max(old, s1, r1, s2, r2, q)
	lim := tol * (1 + float64(q)*float64(q)*(2*maxO+float64(q+1)*mag))
	if math.IsInf(lim, 0) || math.IsNaN(lim) {
		return false
	}
	return math.Abs(fC1-fO1-ref1) <= lim && math.Abs(fC2-fO2-ref2) <= lim
}
