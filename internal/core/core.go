// Package core defines the problem description shared by every scheduling
// algorithm in the repository: the block-partitioned matrix product
// C ← C + A·B of §2.1 of the paper.
//
// Dimensions are expressed in blocks: A is r×t, B is t×s and C is r×s
// blocks of q×q matrix coefficients. One "task" is the full computation of
// one C block (t block updates); one "block update" Cij += Aik·Bkj costs
// w_i time units on worker i, and moving one block to or from the master
// costs c_i time units.
package core

import (
	"fmt"
	"math"
)

// Problem describes one matrix-product instance in block units.
type Problem struct {
	R int // block rows of A and C      (r = nA / q)
	S int // block columns of B and C   (s = nB / q)
	T int // inner block dimension      (t = nAB / q)
	Q int // block edge in coefficients (q = 80 or 100 typically)
}

// NewProblem builds a Problem from element dimensions nA×nAB (A) and
// nAB×nB (B); all three must be divisible by q.
func NewProblem(nA, nAB, nB, q int) (Problem, error) {
	if q <= 0 {
		return Problem{}, fmt.Errorf("core: q must be positive, got %d", q)
	}
	if nA%q != 0 || nAB%q != 0 || nB%q != 0 {
		return Problem{}, fmt.Errorf("core: dimensions %dx%dx%d not divisible by q=%d", nA, nAB, nB, q)
	}
	return Problem{R: nA / q, S: nB / q, T: nAB / q, Q: q}, nil
}

// MustProblem is NewProblem that panics on error; for tests and examples.
func MustProblem(nA, nAB, nB, q int) Problem {
	p, err := NewProblem(nA, nAB, nB, q)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate reports structurally invalid problems.
func (p Problem) Validate() error {
	if p.R <= 0 || p.S <= 0 || p.T <= 0 || p.Q <= 0 {
		return fmt.Errorf("core: invalid problem %+v", p)
	}
	return nil
}

// Updates returns the total number of block updates r·s·t, the work measure
// of the whole paper.
func (p Problem) Updates() int64 {
	return int64(p.R) * int64(p.S) * int64(p.T)
}

// Flops returns the floating-point operation count 2·q³·r·s·t of the
// product (one multiply and one add per coefficient update).
func (p Problem) Flops() float64 {
	q := float64(p.Q)
	return 2 * q * q * q * float64(p.Updates())
}

// ElementDims returns (nA, nAB, nB) in coefficients.
func (p Problem) ElementDims() (nA, nAB, nB int) {
	return p.R * p.Q, p.T * p.Q, p.S * p.Q
}

func (p Problem) String() string {
	nA, nAB, nB := p.ElementDims()
	return fmt.Sprintf("C(%dx%d) += A(%dx%d)*B(%dx%d), q=%d (r=%d t=%d s=%d)",
		nA, nB, nA, nAB, nAB, nB, p.Q, p.R, p.T, p.S)
}

// ChunkFootprint returns the worker-memory blocks needed to serve a
// rows×cols chunk of C with stage staged update sets: the resident tile
// plus stage·(rows+cols) operand buffers (each update set is rows A
// blocks and cols B blocks). This is the one place the paper's layout
// arithmetic lives: for a square µ-chunk it evaluates to the µ² + 2µ
// layout of DDOML at stage 1 and the overlapped µ² + 4µ layout of §5 at
// stage 2. Every consumer — the µ selection in internal/platform, the
// cluster dispatcher's memory gate, the engine's staging docs — derives
// from it rather than re-rounding its own variant.
func ChunkFootprint(rows, cols, stage int) int {
	return rows*cols + stage*(rows+cols)
}

// MaxChunkSide returns the largest µ ≥ 0 with
// ChunkFootprint(µ, µ, stage) ≤ m, i.e. µ² + 2·stage·µ ≤ m. The float
// seed is fixed up with exact integer checks so the µ/memory boundary
// never suffers rounding drift.
func MaxChunkSide(m, stage int) int {
	if m < 1 || stage < 0 {
		return 0
	}
	s := float64(stage)
	mu := int(math.Sqrt(float64(m)+s*s) - s)
	if mu < 0 {
		mu = 0
	}
	for ChunkFootprint(mu+1, mu+1, stage) <= m {
		mu++
	}
	for mu > 0 && ChunkFootprint(mu, mu, stage) > m {
		mu--
	}
	return mu
}

// Result summarizes one scheduled/simulated/real execution. All algorithms
// in the repository report through this one struct so experiments can print
// uniform rows.
type Result struct {
	Algorithm string
	Makespan  float64 // time units (simulators) or seconds (runtimes)
	Enrolled  int     // number of workers actually used
	Blocks    int64   // blocks sent plus received by the master
	Updates   int64   // block updates performed
}

// CCR returns the communication-to-computation ratio in block units
// (blocks transferred per block update), the figure of merit of §4.
func (r Result) CCR() float64 {
	if r.Updates == 0 {
		return 0
	}
	return float64(r.Blocks) / float64(r.Updates)
}

func (r Result) String() string {
	return fmt.Sprintf("%-10s makespan=%12.4f enrolled=%2d blocks=%10d updates=%12d ccr=%.5f",
		r.Algorithm, r.Makespan, r.Enrolled, r.Blocks, r.Updates, r.CCR())
}
