package hetero

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/homog"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExecOptions tunes the execution-phase replay.
type ExecOptions struct {
	// IncludeCIO adds the C-chunk distribution and retrieval
	// communications that the allocation-phase ratio analysis neglects
	// ("Once again, we neglect I/O for C blocks", §6.1). The real
	// execution of §6.2 does pay them, so the default is true.
	IncludeCIO bool
	// Trace, when non-nil, receives the Gantt spans of the execution
	// (Figures 7 and 8 of the paper).
	Trace *trace.Trace
}

// Execute replays an allocation's selection sequence as the second phase of
// §6.2 on the one-port simulator: the first selection of a chunk ships the
// µ_i×µ_i C chunk to P_i, each following selection ships one update set
// (µ_i A blocks + µ_i B blocks, 2µ_i·c_i), and after the t-th update set of
// a chunk the chunk is returned to the master. The master serializes the
// operations in selection order, and each worker has one staging buffer, so
// an update-set communication to a worker still computing completes only
// when the worker becomes ready (the timing rule of Algorithm 3).
func Execute(pl *platform.Platform, pr core.Problem, alloc *Allocation, opt ExecOptions) (core.Result, error) {
	if alloc == nil {
		return core.Result{}, fmt.Errorf("hetero: nil allocation")
	}
	mus := pl.Mus()

	// Enumerate each worker's chunks from its columns: panels of µ_i
	// columns, each cut into ⌈r/µ_i⌉ chunks of µ_i (or ragged) rows.
	queues := make([][]*sim.Chunk, pl.P())
	for w := 0; w < pl.P(); w++ {
		if cols := alloc.Panels[w].Columns; cols > 0 && mus[w] > 0 {
			_, queues[w] = homog.ChunkGrid(core.Problem{R: pr.R, S: cols, T: pr.T}, mus[w])
		}
	}

	// Build the effective selection sequence: the allocation's sequence
	// with surplus selections dropped and any per-worker deficit appended
	// round-robin (the allocation phase stops on a column-count rounding
	// boundary, so the raw sequence can be a few update sets short).
	needed := make([]int, pl.P())
	for w := range queues {
		needed[w] = len(queues[w]) * pr.T
	}
	var seq []int
	taken := make([]int, pl.P())
	for _, w := range alloc.Selections {
		if taken[w] < needed[w] {
			seq = append(seq, w)
			taken[w]++
		}
	}
	for {
		appended := false
		for w := 0; w < pl.P(); w++ {
			if taken[w] < needed[w] {
				seq = append(seq, w)
				taken[w]++
				appended = true
			}
		}
		if !appended {
			break
		}
	}

	// Each selection is one SendAB, preceded by a SendC at a chunk's first
	// selection (without C I/O, at the worker's first) and followed by a
	// RecvC after its t-th.
	var ops []sim.SeqOp
	op := func(w int, k sim.OpKind) { ops = append(ops, sim.SeqOp{Worker: w, Kind: k}) }
	sets := make([]int, pl.P()) // update sets sent for the worker's current chunk
	for _, w := range seq {
		if sets[w] == 0 {
			op(w, sim.SendC)
		}
		op(w, sim.SendAB)
		if sets[w]++; opt.IncludeCIO && sets[w] == pr.T {
			op(w, sim.RecvC)
			sets[w] = 0
		}
	}
	if !opt.IncludeCIO {
		// A worker's chunks become one zero-block chunk holding all its
		// update sets. It is retrieved at the end of the list, where the
		// zero-length RecvC cannot hold the port.
		for w, q := range queues {
			if len(q) == 0 {
				continue
			}
			all := &sim.Chunk{}
			for _, ch := range q {
				all.Steps = append(all.Steps, ch.Steps...)
			}
			queues[w] = []*sim.Chunk{all}
			op(w, sim.RecvC)
		}
	}

	pol := sim.NewSequencePolicy("hetero-"+alloc.Rule.String(), ops)
	res, err := sim.Run(sim.Input{
		Platform: pl,
		Configs:  make([]sim.WorkerConfig, pl.P()), // StageCap 1
		Queues:   queues,
		Policy:   pol,
		Trace:    opt.Trace,
	})
	if err != nil {
		return core.Result{}, fmt.Errorf("hetero: execution phase: %w", err)
	}
	if n := pol.Remaining(); n != 0 {
		return core.Result{}, fmt.Errorf("hetero: execution phase left %d operations unplayed", n)
	}
	return res.Core(pol.Name()), nil
}

// Run is the one-call driver: allocate then execute.
func Run(pl *platform.Platform, pr core.Problem, rule Rule, opt ExecOptions) (core.Result, *Allocation, error) {
	alloc, err := Allocate(pl, pr, rule)
	if err != nil {
		return core.Result{}, nil, err
	}
	res, err := Execute(pl, pr, alloc, opt)
	return res, alloc, err
}
