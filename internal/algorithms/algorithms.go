// Package algorithms implements the seven matrix-product algorithms
// compared in the experimental section (§8.2) of the paper, as drivers for
// the discrete-event simulator. Five use the paper's optimized memory
// layout (µ² C blocks + staging, µ² + 4µ ≤ m):
//
//	HoLM    — the paper's homogeneous algorithm: resource selection
//	          P = min{p, ⌈µw/2c⌉} and the round-robin order of Algorithm 1.
//	ORROML  — Overlapped Round-Robin: same order, no resource selection
//	          (every available worker is enrolled).
//	OMMOML  — Overlapped Min-Min: sends the next block to the first worker
//	          that will be available to compute it.
//	ODDOML  — Overlapped Demand-Driven: sends the next block to the first
//	          worker that can receive it (uses the extra staging buffers).
//	DDOML   — Demand-Driven: sends the next block to the first worker free
//	          for computation; no staging overlap, so the freed buffers
//	          allow a larger µ (µ² + 2µ ≤ m).
//
// and two use Toledo's memory layout:
//
//	BMM     — Block Matrix Multiply: the worker memory is split equally
//	          into three square chunks (side ν = ⌊√(m/3)⌋ blocks) for A, B
//	          and C; blocks are served demand-driven without overlap.
//	OBMM    — Overlapped BMM: five equal parts (ν = ⌊√(m/5)⌋) so the next
//	          A and B chunks arrive during the current product.
package algorithms

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/homog"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Name identifies one of the seven compared algorithms.
type Name string

// The seven algorithms of §8.2.
const (
	HoLM   Name = "HoLM"
	ORROML Name = "ORROML"
	OMMOML Name = "OMMOML"
	ODDOML Name = "ODDOML"
	DDOML  Name = "DDOML"
	BMM    Name = "BMM"
	OBMM   Name = "OBMM"
)

// All lists the algorithms in the paper's presentation order.
func All() []Name {
	return []Name{HoLM, ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM}
}

// Options adjusts a run.
type Options struct {
	Trace *trace.Trace
}

// Run simulates the named algorithm on a homogeneous platform and returns
// the unified result. The platform must be homogeneous — these are the
// §8 comparison algorithms; heterogeneous scheduling lives in the hetero
// package.
func Run(name Name, pl *platform.Platform, pr core.Problem, opt Options) (core.Result, error) {
	if err := pl.Validate(); err != nil {
		return core.Result{}, err
	}
	if !pl.IsHomogeneous() {
		return core.Result{}, fmt.Errorf("algorithms: %s requires a homogeneous platform", name)
	}
	if err := pr.Validate(); err != nil {
		return core.Result{}, err
	}
	w0 := pl.Workers[0]
	p := pl.P()

	configs := func(cap int) []sim.WorkerConfig {
		cf := make([]sim.WorkerConfig, p)
		for i := range cf {
			cf[i] = sim.WorkerConfig{StageCap: cap}
		}
		return cf
	}

	var in sim.Input
	in.Platform = pl
	in.Trace = opt.Trace

	switch name {
	case HoLM:
		sel, err := homog.Select(pl, pr)
		if err != nil {
			return core.Result{}, err
		}
		plan := homog.BuildPlan(pl, pr, sel.P, sel.Mu)
		in.Configs = configs(2)
		in.Queues = plan.Queues
		in.Policy = sim.NewSequencePolicy(string(HoLM), plan.Ops)

	case ORROML:
		mu := platform.MuOverlap(w0.M)
		if mu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small", w0.M)
		}
		plan := homog.BuildPlan(pl, pr, p, mu)
		in.Configs = configs(2)
		in.Queues = plan.Queues
		in.Policy = sim.NewSequencePolicy(string(ORROML), plan.Ops)

	case OMMOML:
		mu := platform.MuOverlap(w0.M)
		if mu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small", w0.M)
		}
		queues, ops := buildOMMOMLPlan(pl, pr)
		in.Configs = configs(2)
		in.Queues = queues
		in.Policy = sim.NewSequencePolicy(string(OMMOML), ops)

	case ODDOML:
		mu := platform.MuOverlap(w0.M)
		if mu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small", w0.M)
		}
		_, pool := homog.ChunkGrid(pr, mu)
		in.Configs = configs(2)
		in.Pool = pool
		in.Policy = sim.NewDemandPolicy(string(ODDOML), sim.FirstToReceive)

	case DDOML:
		mu := platform.MuNoOverlap(w0.M)
		if mu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small", w0.M)
		}
		_, pool := homog.ChunkGrid(pr, mu)
		in.Configs = configs(1)
		in.Pool = pool
		in.Policy = sim.NewDemandPolicy(string(DDOML), sim.FirstToCompute)

	case BMM:
		nu := platform.NuToledo(w0.M)
		if nu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small for Toledo layout", w0.M)
		}
		pool := toledoChunks(pr, nu)
		in.Configs = configs(1)
		in.Pool = pool
		in.Policy = sim.NewDemandPolicy(string(BMM), sim.FirstToCompute)

	case OBMM:
		nu := platform.NuToledoOverlap(w0.M)
		if nu < 1 {
			return core.Result{}, fmt.Errorf("algorithms: memory m=%d too small for overlapped Toledo layout", w0.M)
		}
		pool := toledoChunks(pr, nu)
		in.Configs = configs(2)
		in.Pool = pool
		in.Policy = sim.NewDemandPolicy(string(OBMM), sim.FirstToReceive)

	default:
		return core.Result{}, fmt.Errorf("algorithms: unknown algorithm %q", name)
	}

	r, err := sim.Run(in)
	if err != nil {
		return core.Result{}, fmt.Errorf("algorithms: %s: %w", name, err)
	}
	return r.Core(string(name)), nil
}

// toledoChunks cuts C into ν×ν chunks; each chunk's inner dimension is
// covered by square ν×ν panels of A and B (2ν² blocks per step, ν³
// updates), the Toledo/BMM memory layout.
func toledoChunks(pr core.Problem, nu int) []*sim.Chunk {
	var pool []*sim.Chunk
	id := 0
	for j0 := 0; j0 < pr.S; j0 += nu {
		cw := minInt(nu, pr.S-j0)
		for i0 := 0; i0 < pr.R; i0 += nu {
			rw := minInt(nu, pr.R-i0)
			ch := &sim.Chunk{ID: id, I0: i0, J0: j0, Rows: rw, Cols: cw, Blocks: rw * cw}
			for k0 := 0; k0 < pr.T; k0 += nu {
				kk := minInt(nu, pr.T-k0)
				ch.Steps = append(ch.Steps, sim.Step{
					Blocks:  rw*kk + kk*cw,
					Updates: int64(rw) * int64(cw) * int64(kk),
				})
			}
			pool = append(pool, ch)
			id++
		}
	}
	return pool
}

// RunAll executes every algorithm and returns results sorted by makespan.
func RunAll(pl *platform.Platform, pr core.Problem) ([]core.Result, error) {
	var out []core.Result
	for _, name := range All() {
		r, err := Run(name, pl, pr, Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Makespan < out[b].Makespan })
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
