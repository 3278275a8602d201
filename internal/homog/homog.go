// Package homog implements §5 of the paper: the adaptation of the maximum
// re-use algorithm to fully homogeneous platforms, including resource
// selection.
//
// Each enrolled worker holds a µ×µ chunk of C blocks plus two staging
// pairs of µ A-blocks and µ B-blocks (µ² + 4µ ≤ m) so the next update's
// operands arrive while the current one computes. In one round a worker
// exchanges 2µ² C blocks with the master and receives 2µt operand blocks
// while computing µ²t block updates; saturating the master's port at that
// rate selects
//
//	P = min{ p, ⌈µw / (2c)⌉ }
//
// workers (Algorithm 1). When C is too small to give each of the P workers
// µ²-block chunks, a reduced chunk side ν (and worker count Q = ⌈νw/2c⌉)
// is used instead (§5, "Dealing with small matrices or platforms").
package homog

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Selection is the outcome of the homogeneous resource-selection rule.
type Selection struct {
	Mu       int  // chunk side actually used (µ, or the reduced ν)
	P        int  // number of enrolled workers
	Reduced  bool // true when the small-matrix fallback picked ν < µ
	MuMemory int  // the memory-only µ (µ² + 4µ ≤ m), before reduction
}

// Select performs the resource selection of §5 for a homogeneous platform
// and problem. The platform must be homogeneous.
func Select(pl *platform.Platform, pr core.Problem) (Selection, error) {
	if err := pl.Validate(); err != nil {
		return Selection{}, err
	}
	if !pl.IsHomogeneous() {
		return Selection{}, fmt.Errorf("homog: platform is heterogeneous; use the hetero package")
	}
	if err := pr.Validate(); err != nil {
		return Selection{}, err
	}
	w0 := pl.Workers[0]
	mu := platform.MuOverlap(w0.M)
	if mu < 1 {
		return Selection{}, fmt.Errorf("homog: memory m=%d cannot hold µ ≥ 1 (need µ²+4µ ≤ m)", w0.M)
	}
	sel := Selection{Mu: mu, MuMemory: mu}
	p := pl.P()

	workers := func(side int) int {
		return int(math.Ceil(float64(side) * w0.W / (2 * w0.C)))
	}
	sel.P = workers(mu)
	if sel.P < 1 {
		sel.P = 1
	}
	if sel.P > p {
		sel.P = p
	}

	// Large-matrix check: C must hold P chunks of µ² blocks.
	rs := int64(pr.R) * int64(pr.S)
	if rs >= int64(sel.P)*int64(mu)*int64(mu) {
		return sel, nil
	}

	// Small matrix: the largest ν with ⌈νw/2c⌉·ν² ≤ r·s, enrolling
	// Q = ⌈νw/2c⌉ workers.
	sel.Reduced = true
	for nu := mu; nu >= 1; nu-- {
		q := workers(nu)
		if q < 1 {
			q = 1
		}
		if int64(q)*int64(nu)*int64(nu) <= rs {
			if q > p {
				// Platform smaller than desired: enroll everyone and
				// shrink ν so the p workers share C evenly.
				q = p
				nuAll := int(math.Sqrt(float64(rs) / float64(p)))
				if nuAll < 1 {
					nuAll = 1
				}
				if nuAll < nu {
					nu = nuAll
				}
			}
			sel.Mu, sel.P = nu, q
			return sel, nil
		}
	}
	// Degenerate: single worker, 1×1 chunks.
	sel.Mu, sel.P = 1, 1
	return sel, nil
}

// ChunkGrid cuts the r×s block grid of C into side×side chunks (ragged at
// the borders) and returns them indexed by [panel][rowChunk], plus a flat
// panel-major pool for demand-driven algorithms: down each column panel,
// panels left to right, so chunk (1,0) comes before chunk (0,1).
func ChunkGrid(pr core.Problem, side int) (grid [][]*sim.Chunk, pool []*sim.Chunk) {
	id := 0
	for j0 := 0; j0 < pr.S; j0 += side {
		cw := minInt(side, pr.S-j0)
		var panel []*sim.Chunk
		for i0 := 0; i0 < pr.R; i0 += side {
			rw := minInt(side, pr.R-i0)
			ch := &sim.Chunk{ID: id, I0: i0, J0: j0, Rows: rw, Cols: cw, Blocks: rw * cw}
			for k := 0; k < pr.T; k++ {
				ch.Steps = append(ch.Steps, sim.Step{
					Blocks:  rw + cw,
					Updates: int64(rw) * int64(cw),
				})
			}
			panel = append(panel, ch)
			pool = append(pool, ch)
			id++
		}
		grid = append(grid, panel)
	}
	return grid, pool
}

// Plan is a ready-to-simulate homogeneous schedule: per-worker chunk
// queues and the static communication order of Algorithm 1.
type Plan struct {
	Selection Selection
	Queues    [][]*sim.Chunk
	Ops       []sim.SeqOp
}

// BuildPlan allocates µ-wide column panels of C to the enrolled workers
// (worker w owns panels w, w+P, w+2P, …) and emits the master program of
// Algorithm 1: for each panel group and each row chunk, send every
// worker's C chunk, then for each k = 1..t send every worker its update
// set (µ B blocks then µ A blocks), then retrieve every C chunk.
func BuildPlan(pl *platform.Platform, pr core.Problem, enroll int, side int) *Plan {
	grid, _ := ChunkGrid(pr, side)
	nPanels := len(grid)
	nRows := len(grid[0])

	queues := make([][]*sim.Chunk, pl.P())
	var ops []sim.SeqOp
	for g := 0; g*enroll < nPanels; g++ {
		lo := g * enroll
		n := minInt(enroll, nPanels-lo)
		for i := 0; i < nRows; i++ {
			for w := 0; w < n; w++ {
				queues[w] = append(queues[w], grid[lo+w][i])
				ops = append(ops, sim.SeqOp{Worker: w, Kind: sim.SendC})
			}
			for k := 0; k < pr.T; k++ {
				for w := 0; w < n; w++ {
					ops = append(ops, sim.SeqOp{Worker: w, Kind: sim.SendAB})
				}
			}
			for w := 0; w < n; w++ {
				ops = append(ops, sim.SeqOp{Worker: w, Kind: sim.RecvC})
			}
		}
	}
	return &Plan{
		Selection: Selection{Mu: side, P: enroll},
		Queues:    queues,
		Ops:       ops,
	}
}

// StartupOverheadBound returns the upper bound of §5 ("Impact of the
// start-up overhead") on the fraction of time lost to the sequentialized
// C-chunk input/output: less than µ/t + 2c/(t·w) per round.
func StartupOverheadBound(mu, t int, c, w float64) float64 {
	return float64(mu)/float64(t) + 2*c/(float64(t)*w)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
