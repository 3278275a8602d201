// Package bounds implements §4 of the paper: the communication-volume
// analysis of the matrix product under a memory limit of m block buffers.
//
// It provides
//
//   - the maximum re-use algorithm of §4.1 (one A buffer, µ B buffers, µ²
//     C buffers with 1 + µ + µ² ≤ m) as an exact communication counter
//     (ooc.MultiplyMaxReuse executes the same loop over real blocks);
//   - its communication-to-computation ratio CCR = 2/t + 2/µ and the
//     asymptotic value 2/√m;
//   - the lower bound CCR_opt = √(27/(8m)) obtained from the
//     Loomis–Whitney inequality, the weaker √(27/(32m)) obtained from
//     Toledo's lemma, and the earlier √(1/(8m)) constant of
//     Irony–Toledo–Tiskin for comparison.
package bounds

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
)

// CCRMaxReuse returns the block-level communication-to-computation ratio of
// the maximum re-use algorithm, CCR = 2/t + 2/µ (§4.2), for a memory of m
// buffers and inner dimension t.
func CCRMaxReuse(m, t int) float64 {
	mu := platform.MuSingle(m)
	if mu == 0 || t == 0 {
		return math.Inf(1)
	}
	return 2/float64(t) + 2/float64(mu)
}

// CCRMaxReuseAsymptotic returns the t → ∞ limit 2/µ ≈ 2/√m = √(32/(8m)).
func CCRMaxReuseAsymptotic(m int) float64 {
	mu := platform.MuSingle(m)
	if mu == 0 {
		return math.Inf(1)
	}
	return 2 / float64(mu)
}

// LowerBoundLoomisWhitney returns the paper's new lower bound
// CCR_opt = √(27/(8m)) on the communication-to-computation ratio of any
// standard (non-Strassen) matrix-product algorithm with m buffers (§4.2).
func LowerBoundLoomisWhitney(m int) float64 {
	return math.Sqrt(27 / (8 * float64(m)))
}

// LowerBoundToledoLemma returns the weaker bound √(27/(32m)) derived from
// the access lemma of Toledo's survey, which the paper refines.
func LowerBoundToledoLemma(m int) float64 {
	return math.Sqrt(27 / (32 * float64(m)))
}

// LowerBoundIronyToledoTiskin returns the previously best-known value
// √(1/(8m)) from Irony, Toledo and Tiskin, which the paper improves upon.
func LowerBoundIronyToledoTiskin(m int) float64 {
	return math.Sqrt(1 / (8 * float64(m)))
}

// MaxComputeToledoLemma bounds the number of block updates K feasible when
// NA, NB and NC distinct elements of A, B and C are accessed, per Toledo's
// lemma: K = min{(NA+NB)√NC, (NA+NC)√NB, (NB+NC)√NA}.
func MaxComputeToledoLemma(na, nb, nc float64) float64 {
	return math.Min(
		(na+nb)*math.Sqrt(nc),
		math.Min((na+nc)*math.Sqrt(nb), (nb+nc)*math.Sqrt(na)))
}

// MaxComputeLoomisWhitney bounds the same quantity with the Loomis–Whitney
// inequality: K = √(NA·NB·NC).
func MaxComputeLoomisWhitney(na, nb, nc float64) float64 {
	return math.Sqrt(na * nb * nc)
}

// OptimizeK numerically solves the small optimization program of §4.2:
// maximize k subject to the given per-window compute bound and
// α + β + γ ≤ 2. It grid-searches the simplex at the given resolution and
// returns the best (α, β, γ, k). Tests verify it converges to
// α = β = γ = 2/3 with k = √(32/27) (Toledo lemma) or k = √(8/27)
// (Loomis–Whitney).
func OptimizeK(bound func(a, b, g float64) float64, steps int) (alpha, beta, gamma, k float64) {
	if steps < 2 {
		steps = 2
	}
	h := 2.0 / float64(steps)
	for ia := 0; ia <= steps; ia++ {
		a := float64(ia) * h
		for ib := 0; ia+ib <= steps; ib++ {
			b := float64(ib) * h
			g := 2.0 - a - b
			if g < 0 {
				continue
			}
			if v := bound(a, b, g); v > k {
				alpha, beta, gamma, k = a, b, g, v
			}
		}
	}
	return alpha, beta, gamma, k
}

// ToledoK is the objective min{(α+β)√γ, (β+γ)√α, (γ+α)√β} of the
// Toledo-lemma version of the optimization.
func ToledoK(a, b, g float64) float64 {
	return math.Min((a+b)*math.Sqrt(g), math.Min((b+g)*math.Sqrt(a), (g+a)*math.Sqrt(b)))
}

// LoomisWhitneyK is the objective √(αβγ) of the refined optimization.
func LoomisWhitneyK(a, b, g float64) float64 {
	return math.Sqrt(a * b * g)
}

// Stats reports the exact communication accounting of one maximum re-use
// execution.
type Stats struct {
	Mu        int
	Chunks    int   // number of µ×µ (or ragged) C chunks processed
	SentA     int64 // A blocks master → worker
	SentB     int64 // B blocks master → worker
	SentC     int64 // C blocks master → worker
	RecvC     int64 // C blocks worker → master
	Updates   int64 // block updates performed
	PeakStore int   // maximum blocks resident on the worker at any instant
}

// TotalComm returns all master-side transfers in blocks.
func (s Stats) TotalComm() int64 { return s.SentA + s.SentB + s.SentC + s.RecvC }

// CCR returns the measured block-level communication-to-computation ratio.
func (s Stats) CCR() float64 {
	if s.Updates == 0 {
		return math.Inf(1)
	}
	return float64(s.TotalComm()) / float64(s.Updates)
}

// CountMaxReuse computes the exact communication counts of the maximum
// re-use algorithm on an r×s×t problem with m buffers without touching any
// data. Ragged chunks (when µ does not divide r or s) are handled by
// clamping the chunk to the matrix border, exactly as
// ooc.MultiplyMaxReuse does.
func CountMaxReuse(pr core.Problem, m int) (Stats, error) {
	mu := platform.MuSingle(m)
	if mu < 1 {
		return Stats{}, fmt.Errorf("bounds: memory m=%d too small (need 1+µ+µ² ≤ m with µ ≥ 1)", m)
	}
	var st Stats
	st.Mu = mu
	for i0 := 0; i0 < pr.R; i0 += mu {
		mi := min(mu, pr.R-i0)
		for j0 := 0; j0 < pr.S; j0 += mu {
			mj := min(mu, pr.S-j0)
			st.Chunks++
			st.SentC += int64(mi * mj)
			st.RecvC += int64(mi * mj)
			st.SentB += int64(pr.T * mj)
			st.SentA += int64(pr.T * mi)
			st.Updates += int64(pr.T * mi * mj)
			if peak := mi*mj + mj + 1; peak > st.PeakStore {
				st.PeakStore = peak
			}
		}
	}
	return st, nil
}
