package core

import (
	"strings"
	"testing"
)

func TestNewProblem(t *testing.T) {
	p, err := NewProblem(8000, 8000, 64000, 80)
	if err != nil {
		t.Fatal(err)
	}
	if p.R != 100 || p.T != 100 || p.S != 800 || p.Q != 80 {
		t.Fatalf("got %+v", p)
	}
}

func TestNewProblemErrors(t *testing.T) {
	if _, err := NewProblem(100, 100, 100, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := NewProblem(101, 100, 100, 10); err == nil {
		t.Fatal("indivisible nA accepted")
	}
	if _, err := NewProblem(100, 100, 105, 10); err == nil {
		t.Fatal("indivisible nB accepted")
	}
}

func TestMustProblemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProblem did not panic")
		}
	}()
	MustProblem(3, 3, 3, 2)
}

func TestValidate(t *testing.T) {
	if err := (Problem{R: 1, S: 1, T: 1, Q: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Problem{R: 0, S: 1, T: 1, Q: 1}).Validate(); err == nil {
		t.Fatal("R=0 accepted")
	}
}

func TestCounts(t *testing.T) {
	p := Problem{R: 3, S: 4, T: 5, Q: 2}
	if p.Updates() != 60 {
		t.Fatalf("Updates = %d", p.Updates())
	}
	if got := p.Flops(); got != 2*8*60 {
		t.Fatalf("Flops = %v", got)
	}
	nA, nAB, nB := p.ElementDims()
	if nA != 6 || nAB != 10 || nB != 8 {
		t.Fatalf("dims %d %d %d", nA, nAB, nB)
	}
}

func TestResultCCR(t *testing.T) {
	r := Result{Blocks: 50, Updates: 100}
	if r.CCR() != 0.5 {
		t.Fatalf("CCR = %v", r.CCR())
	}
	if (Result{}).CCR() != 0 {
		t.Fatal("empty result CCR should be 0")
	}
}

func TestStrings(t *testing.T) {
	p := Problem{R: 2, S: 3, T: 4, Q: 5}
	if s := p.String(); !strings.Contains(s, "q=5") {
		t.Fatalf("Problem.String() = %q", s)
	}
	r := Result{Algorithm: "x", Makespan: 1, Enrolled: 2, Blocks: 3, Updates: 4}
	if s := r.String(); !strings.Contains(s, "x") || !strings.Contains(s, "enrolled= 2") {
		t.Fatalf("Result.String() = %q", s)
	}
}

func TestChunkFootprint(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, stage, want int
	}{
		{1, 1, 1, 3},  // one block plus one A and one B buffer
		{2, 3, 1, 11}, // 6 + (2+3)
		{2, 3, 2, 16}, // 6 + 2·(2+3)
		{4, 4, 2, 32}, // µ=4 overlapped: µ² + 4µ
		{4, 4, 1, 24}, // µ=4 DDOML: µ² + 2µ
		{5, 1, 0, 5},  // no staging: just the tile
	} {
		if got := ChunkFootprint(tc.rows, tc.cols, tc.stage); got != tc.want {
			t.Fatalf("ChunkFootprint(%d,%d,%d) = %d, want %d",
				tc.rows, tc.cols, tc.stage, got, tc.want)
		}
	}
}

// TestMaxChunkSideBoundary sweeps the µ/memory boundary exhaustively
// against a brute-force search: for every memory size the returned µ
// must fit and µ+1 must not — the exact rounding contract the layouts
// of §4–§5 (and the dispatcher's memory gate) rely on. It also pins the
// paper's own landmark values through the internal/platform wrappers'
// formulas: µ² + 4µ ≤ m (overlapped) and µ² + 2µ ≤ m (DDOML).
func TestMaxChunkSideBoundary(t *testing.T) {
	for stage := 0; stage <= 3; stage++ {
		for m := 0; m <= 5000; m++ {
			mu := MaxChunkSide(m, stage)
			if mu < 0 {
				t.Fatalf("MaxChunkSide(%d,%d) = %d < 0", m, stage, mu)
			}
			if mu > 0 && ChunkFootprint(mu, mu, stage) > m {
				t.Fatalf("MaxChunkSide(%d,%d) = %d does not fit (footprint %d)",
					m, stage, mu, ChunkFootprint(mu, mu, stage))
			}
			if ChunkFootprint(mu+1, mu+1, stage) <= m {
				t.Fatalf("MaxChunkSide(%d,%d) = %d, but µ=%d still fits (footprint %d)",
					m, stage, mu, mu+1, ChunkFootprint(mu+1, mu+1, stage))
			}
		}
	}
	// Exact boundaries: µ²+2·stage·µ = m must admit µ, m-1 must not.
	for _, tc := range []struct{ m, stage, want int }{
		{12, 2, 2}, // 2²+4·2 = 12
		{11, 2, 1}, // one short of the µ=2 overlapped boundary
		{96, 2, 8}, // 8²+4·8 = 96
		{95, 2, 7},
		{15, 1, 3}, // 3²+2·3 = 15
		{14, 1, 2},
		{4, 0, 2}, // stage 0: pure tile, µ = ⌊√m⌋
		{3, 0, 1},
	} {
		if got := MaxChunkSide(tc.m, tc.stage); got != tc.want {
			t.Fatalf("MaxChunkSide(%d,%d) = %d, want %d", tc.m, tc.stage, got, tc.want)
		}
	}
}
