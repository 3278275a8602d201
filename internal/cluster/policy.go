package cluster

import (
	"sort"

	"repro/internal/core"
	"repro/internal/homog"
	"repro/internal/sim"
)

// Planner is the pluggable per-job scheduling policy: it cuts a matmul
// job's C grid into chunks and fixes their dispatch order. The chunk
// geometry bounds each worker's in-flight state (one chunk plus staging
// sets), so the planner is also what keeps recovery cheap. The existing
// schedulers plug in here: MaxReusePlanner is the §4.1/§5 maximum re-use
// order of internal/homog, LargestFirstPlanner is the
// heterogeneity-motivated variant (internal/hetero's principle of feeding
// big consumers first applied to ragged chunk grids).
type Planner interface {
	Name() string
	// Plan returns the job's chunk pool in dispatch order.
	Plan(pr core.Problem, mu int) []*sim.Chunk
}

// MaxReusePlanner emits µ×µ chunks in the column-panel order of the
// maximum re-use algorithm (Algorithm 1), the default policy.
type MaxReusePlanner struct{}

// Name implements Planner.
func (MaxReusePlanner) Name() string { return "max-reuse" }

// Plan implements Planner.
func (MaxReusePlanner) Plan(pr core.Problem, mu int) []*sim.Chunk {
	_, pool := homog.ChunkGrid(pr, mu)
	return pool
}

// LargestFirstPlanner dispatches the largest chunks first so the ragged
// border tiles of a non-divisible grid land at the tail — the classic LPT
// tail-shaving rule, useful when worker speeds differ.
type LargestFirstPlanner struct{}

// Name implements Planner.
func (LargestFirstPlanner) Name() string { return "largest-first" }

// Plan implements Planner.
func (LargestFirstPlanner) Plan(pr core.Problem, mu int) []*sim.Chunk {
	_, pool := homog.ChunkGrid(pr, mu)
	sort.SliceStable(pool, func(a, b int) bool {
		return pool[a].Blocks > pool[b].Blocks
	})
	return pool
}
