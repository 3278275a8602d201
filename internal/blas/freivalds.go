package blas

import "math"

// Freivalds-style randomized verification of one q×q C-tile update.
//
// A worker that computed cand = old + Σ_k A_k·B_k (the chunk protocol's
// per-tile contract: one ascending-k FMA chain over the task's update
// sets) can be checked in O(rounds·steps·q²) instead of the O(steps·q³)
// recompute: for random ±1 probe vectors s and r,
//
//	sᵀ·cand·r  ==  sᵀ·old·r + Σ_k (sᵀ·A_k)·(B_k·r)
//
// holds exactly in real arithmetic iff the tile is correct, and a wrong
// tile survives one round with probability ≤ 1/2 (Freivalds 1979), so k
// independent rounds drive the false-accept rate below 2⁻ᵏ. Rounds run
// in fused pairs (probe.go), and ProbeAccepts is the one acceptance
// rule. Borderline verdicts escalate to RecomputeTile, which re-runs
// the exact chain and compares bit-for-bit.
//
// TileVerifier is the same probe without the verifying master's per-job
// cache: every Check projects each operand block afresh.
type TileVerifier struct {
	seed uint64 // the next probe vector's seed
}

// NewTileVerifier builds a verifier whose probe vectors derive from
// seed. The stream is deterministic: the same seed and call sequence
// draws the same probes, so tests pin exact accept/reject behavior.
func NewTileVerifier(seed uint64) *TileVerifier {
	return &TileVerifier{seed: seed}
}

// DefaultVerifyTol is the relative acceptance tolerance of ProbeAccepts'
// residual limit. The limit bounds the honest rounding drift by orders
// of magnitude, so 1e-9 never refuses an honest tile of any plausible
// size while still catching every corruption that moves a double's
// value detectably.
const DefaultVerifyTol = 1e-9

// Check verifies cand against the update old + Σ_k a[k]·b[k] (all q×q
// row-major blocks; subtract flips the sign of the a-products, the LU
// trailing-update case where the worker received the negated panel).
// It runs rounds probe rounds, rounded up to whole pairs, each pair on
// freshly drawn vectors, and reports whether every pair accepted. tol
// ≤ 0 uses DefaultVerifyTol.
func (v *TileVerifier) Check(cand, old []float64, a, b [][]float64, q int, subtract bool, rounds int, tol float64) bool {
	if tol <= 0 {
		tol = DefaultVerifyTol
	}
	vec := make([][]float64, 8)
	for i := range vec {
		vec[i] = make([]float64, q)
	}
	s1, r1, s2, r2, u1, u2, y1, y2 := vec[0], vec[1], vec[2], vec[3], vec[4], vec[5], vec[6], vec[7]
	for p := 0; p < max(1, (rounds+1)/2); p++ {
		for _, x := range vec[:4] {
			SignVec(x, v.seed)
			v.seed++
		}
		ref1, ref2, mag := 0.0, 0.0, 0.0
		for k := range a {
			nA := VecMat2Max(u1, u2, a[k], s1, s2, q)
			nB := MatVec2Max(y1, y2, b[k], r1, r2, q)
			d1, d2 := Dot(u1, y1, q), Dot(u2, y2, q)
			if subtract {
				d1, d2 = -d1, -d2
			}
			ref1 += d1
			ref2 += d2
			mag += nA * nB
		}
		if !ProbeAccepts(cand, old, s1, r1, s2, r2, ref1, ref2, mag, q, tol) {
			return false
		}
	}
	return true
}

// RecomputeTile is the exact escalation path: it replays the tile's
// update chain — dst = old, then one BlockUpdate per k in ascending
// order — through the same dispatch every worker path is pinned
// bit-exact to. dst must hold q² elements and not alias old. A
// candidate from an honest worker matches the recomputation
// bit-for-bit; any mismatch is proof of corruption, not rounding.
func RecomputeTile(dst, old []float64, a, b [][]float64, q int) {
	copy(dst, old)
	for k := range a {
		BlockUpdate(dst, a[k], b[k], q)
	}
}

// EqualBits reports whether x and y carry identical float64 bit
// patterns element-wise (the repository's bit-exactness invariant makes
// this the right comparison for RecomputeTile verdicts: it cannot be
// fooled by NaN payloads or signed-zero flips the way == can).
func EqualBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
