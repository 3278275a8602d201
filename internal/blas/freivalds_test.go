package blas

import (
	"math"
	"math/rand"
	"testing"
)

// randTile builds old, a, b operands and the honest candidate
// old + Σ_k a[k]·b[k] (or minus, when subtract) computed through the
// exact chain every worker path is pinned to.
func randTile(rng *rand.Rand, q, steps int, subtract bool) (cand, old []float64, a, b [][]float64) {
	old = make([]float64, q*q)
	for i := range old {
		old[i] = rng.NormFloat64()
	}
	a = make([][]float64, steps)
	b = make([][]float64, steps)
	for k := 0; k < steps; k++ {
		a[k] = make([]float64, q*q)
		b[k] = make([]float64, q*q)
		for i := range a[k] {
			a[k][i] = rng.NormFloat64()
			b[k][i] = rng.NormFloat64()
		}
	}
	cand = make([]float64, q*q)
	work := a
	if subtract {
		work = make([][]float64, steps)
		for k := range a {
			neg := make([]float64, q*q)
			for i, v := range a[k] {
				neg[i] = -v
			}
			work[k] = neg
		}
	}
	RecomputeTile(cand, old, work, b, q)
	return cand, old, a, b
}

// TestFreivaldsZeroFalseRejects pins the acceptance side of the
// property: a bit-exact honest tile is never rejected, across shapes,
// step counts, LU-style subtraction, seeds, and round counts.
func TestFreivaldsZeroFalseRejects(t *testing.T) {
	v := NewTileVerifier(7)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		q := 1 + rng.Intn(24)
		steps := 1 + rng.Intn(6)
		subtract := rng.Intn(2) == 1
		cand, old, a, b := randTile(rng, q, steps, subtract)
		rounds := 1 + rng.Intn(5)
		if !v.Check(cand, old, a, b, q, subtract, rounds, 0) {
			t.Fatalf("trial %d: honest tile rejected (q=%d steps=%d subtract=%v rounds=%d)",
				trial, q, steps, subtract, rounds)
		}
	}
}

// TestFreivaldsCatchesSingleFlip pins the detection side for the fault
// the harness injects: flipping one exponent bit of one nonzero element
// is caught by every ±1 probe (a single-element corruption changes
// exactly one probe coordinate by the corruption itself, which a ±1
// probe never cancels).
func TestFreivaldsCatchesSingleFlip(t *testing.T) {
	v := NewTileVerifier(11)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		q := 2 + rng.Intn(16)
		cand, old, a, b := randTile(rng, q, 1+rng.Intn(4), false)
		i := rng.Intn(q * q)
		cand[i] = math.Float64frombits(math.Float64bits(cand[i]) ^ (1 << 62))
		if v.Check(cand, old, a, b, q, false, 1, 0) {
			t.Fatalf("trial %d: single-flip corruption accepted (q=%d)", trial, q)
		}
	}
}

// falseAcceptRate measures how often an adversarial corruption — two
// equal-and-opposite perturbations in the same tile row, the pattern a
// ±1 probe cancels with probability 1/2 per round — survives k rounds.
func falseAcceptRate(t *testing.T, rounds, trials int) float64 {
	t.Helper()
	v := NewTileVerifier(101)
	rng := rand.New(rand.NewSource(44))
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		q := 8
		cand, old, a, b := randTile(rng, q, 2, false)
		row := rng.Intn(q)
		j1 := rng.Intn(q)
		j2 := (j1 + 1 + rng.Intn(q-1)) % q
		d := 1.0 + rng.Float64()
		cand[row*q+j1] += d
		cand[row*q+j2] -= d
		if v.Check(cand, old, a, b, q, false, rounds, 0) {
			accepted++
		}
	}
	return float64(accepted) / float64(trials)
}

// TestFreivaldsFalseAcceptShrinksWithRounds pins the 2⁻ᵏ error decay:
// the adversarial two-element corruption survives each two-sided round
// about half the time, and rounds run in pairs, so it passes two rounds
// about a quarter of the time and each extra pair quarters the
// survival rate.
func TestFreivaldsFalseAcceptShrinksWithRounds(t *testing.T) {
	const trials = 2000
	r2 := falseAcceptRate(t, 2, trials)
	r4 := falseAcceptRate(t, 4, trials)
	r6 := falseAcceptRate(t, 6, trials)
	t.Logf("false-accept rates: %.3f, %.3f, %.3f at 2, 4, 6 rounds", r2, r4, r6)
	if r2 < 0.18 || r2 > 0.32 {
		t.Fatalf("2-round false-accept rate %.3f, want ≈ 0.25", r2)
	}
	if r4 < 0.03 || r4 > 0.10 {
		t.Fatalf("4-round false-accept rate %.3f, want ≈ 0.0625", r4)
	}
	if r6 > 0.035 {
		t.Fatalf("6-round false-accept rate %.3f, want ≈ 0.016", r6)
	}
	if !(r4 < r2 && r6 < r4) {
		t.Fatalf("false-accept rate not shrinking with rounds: %.3f, %.3f, %.3f", r2, r4, r6)
	}
}

// TestRecomputeTileEscalation pins the exact path: the recomputation
// matches an honest candidate bit-for-bit and differs on any corrupted
// one, including a NaN injection == would wave through.
func TestRecomputeTileEscalation(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	q := 12
	cand, old, a, b := randTile(rng, q, 3, false)
	dst := make([]float64, q*q)
	RecomputeTile(dst, old, a, b, q)
	if !EqualBits(dst, cand) {
		t.Fatal("honest tile does not match its exact recomputation")
	}
	bad := append([]float64(nil), cand...)
	bad[5] = math.NaN()
	if EqualBits(dst, bad) {
		t.Fatal("NaN-corrupted tile matched the exact recomputation")
	}
}

// spreadTile is randTile with every operand block — old and each a[k],
// b[k] — scaled by its own 2^e, e uniform in [−60, 60]: the tile's
// terms then differ by up to 2²⁴⁰ in magnitude instead of all being
// unit-normal. Power-of-two scaling is exact, so the candidate is still
// the honest chain's bit-exact value.
func spreadTile(rng *rand.Rand, q, steps int, subtract bool) (cand, old []float64, a, b [][]float64) {
	_, old, a, b = randTile(rng, q, steps, false)
	scale := func(m []float64) {
		f := math.Ldexp(1, rng.Intn(121)-60)
		for i := range m {
			m[i] *= f
		}
	}
	scale(old)
	work := make([][]float64, steps)
	for k := range a {
		scale(a[k])
		scale(b[k])
		work[k] = a[k]
		if subtract {
			work[k] = make([]float64, q*q)
			for i, v := range a[k] {
				work[k][i] = -v
			}
		}
	}
	cand = make([]float64, q*q)
	RecomputeTile(cand, old, work, b, q)
	return cand, old, a, b
}

// shortTrials is n, or a tenth of it under -short: the race job runs
// the kernels an order of magnitude slower.
func shortTrials(n int) int {
	if testing.Short() {
		return n / 10
	}
	return n
}

// TestFreivaldsAcceptsMagnitudeSpread: an honest tile is never refused
// however far apart its operand blocks' magnitudes are — the limit is
// scaled by the largest term the chain flowed through, not by one.
func TestFreivaldsAcceptsMagnitudeSpread(t *testing.T) {
	v := NewTileVerifier(17)
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < shortTrials(400); trial++ {
		q := 1 + rng.Intn(128)
		steps := 1 + rng.Intn(8)
		subtract := rng.Intn(2) == 1
		cand, old, a, b := spreadTile(rng, q, steps, subtract)
		if !v.Check(cand, old, a, b, q, subtract, 2, 0) {
			t.Fatalf("trial %d: honest spread tile refused (q=%d steps=%d subtract=%v)", trial, q, steps, subtract)
		}
	}
}

// TestFreivaldsRefusesEveryHighBitFlip: flipping any one of bits 51–63
// (the top mantissa bit, the exponent, the sign) of an element at least
// 1/16 of the tile's largest moves it by at least a quarter of itself,
// far above the residual limit's relative part, so the default two
// rounds refuse every such flip of a unit-normal tile. On
// magnitude-spread tiles the same holds for every flip that moves the
// element by more than 10·DefaultVerifyTol; below that the limit's
// absolute term, tol·1, admits the flip whatever the tile's own scale,
// and those flips are counted, not pinned.
func TestFreivaldsRefusesEveryHighBitFlip(t *testing.T) {
	v := NewTileVerifier(19)
	rng := rand.New(rand.NewSource(47))
	for _, tc := range []struct {
		name   string
		tile   func(*rand.Rand, int, int, bool) ([]float64, []float64, [][]float64, [][]float64)
		trials int
		floor  float64
	}{
		{"unit-normal", randTile, 300, 0},
		{"spread", spreadTile, 150, 10 * DefaultVerifyTol},
	} {
		flips, floored := 0, 0
		for trial := 0; trial < shortTrials(tc.trials); trial++ {
			q := 1 + rng.Intn(128)
			steps := 1 + rng.Intn(8)
			cand, old, a, b := tc.tile(rng, q, steps, false)
			big := 0.0
			for _, x := range cand {
				big = max(big, math.Abs(x))
			}
			var pick []int
			for i, x := range cand {
				if math.Abs(x) >= big/16 {
					pick = append(pick, i)
				}
			}
			i := pick[rng.Intn(len(pick))]
			for bit := 51; bit <= 63; bit++ {
				mut := append([]float64(nil), cand...)
				mut[i] = math.Float64frombits(math.Float64bits(mut[i]) ^ 1<<bit)
				flips++
				if !v.Check(mut, old, a, b, q, false, 2, 0) {
					continue
				}
				if shift := math.Abs(mut[i] - cand[i]); shift <= tc.floor {
					floored++
					continue
				}
				t.Fatalf("%s trial %d: bit %d flip of %g (tile max %g) accepted (q=%d steps=%d)",
					tc.name, trial, bit, cand[i], big, q, steps)
			}
		}
		t.Logf("%s: %d flips, %d accepted below the absolute floor", tc.name, flips, floored)
	}
}
