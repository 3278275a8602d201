package lu

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ParallelResult reports a simulated parallel LU factorization.
type ParallelResult struct {
	Makespan   float64
	Enrolled   int
	Blocks     float64 // communication volume in blocks
	Work       float64 // block operations
	PrologTime float64 // time spent in pivot/panel phases (sequential part)
}

// SimulateHomogeneous simulates the homogeneous parallel LU of §7.2 on the
// one-port simulator: at each step k worker P1 receives the pivot matrix
// and both panels and factors and updates them while the port waits, then
// P = min{p, ⌈µw/3c⌉} workers update the core in parallel, each receiving
// whole groups of µ core columns (µ² horizontal-panel blocks, then 3µ
// blocks exchanged per core row). The groups are list-scheduled
// round-robin on the enrolled workers under one-port serialization of all
// transfers, and step k+1 starts once every group of step k is done.
//
// r must be divisible by µ.
func SimulateHomogeneous(pl *platform.Platform, r, mu int, tr *trace.Trace) (ParallelResult, error) {
	if err := pl.Validate(); err != nil {
		return ParallelResult{}, err
	}
	if !pl.IsHomogeneous() {
		return ParallelResult{}, fmt.Errorf("lu: SimulateHomogeneous needs a homogeneous platform")
	}
	steps, err := Steps(r, mu)
	if err != nil {
		return ParallelResult{}, err
	}
	w0 := pl.Workers[0]
	res := ParallelResult{Enrolled: SelectP(pl.P(), mu, w0.C, w0.W)}

	// Every transfer is a one-step chunk without C blocks. Retrieving a
	// worker's chunk before sending it the next makes that chunk's
	// transfer wait for the worker's previous compute.
	queues := make([][]*sim.Chunk, pl.P())
	var ops []sim.SeqOp
	held := make([]bool, pl.P()) // the worker's last chunk is not retrieved yet
	recv := func(w int) {
		if held[w] {
			ops = append(ops, sim.SeqOp{Worker: w, Kind: sim.RecvC})
			held[w] = false
		}
	}
	send := func(w, blocks, updates int) {
		recv(w)
		queues[w] = append(queues[w], &sim.Chunk{Steps: []sim.Step{{Blocks: blocks, Updates: int64(updates)}}})
		ops = append(ops, sim.SeqOp{Worker: w, Kind: sim.SendC}, sim.SeqOp{Worker: w, Kind: sim.SendAB})
		held[w] = true
	}
	for _, st := range steps {
		rem := r - st.K*mu // rows and columns right of and below the pivot
		// Pivot and panels: 2µ² + 2µ·rem + 2µ·rem blocks, µ³ + µ²·rem/2 +
		// µ²·rem/2 updates.
		blocks, work := 2*mu*mu+4*mu*rem, mu*mu*mu+mu*mu*rem
		res.PrologTime += float64(blocks)*w0.C + float64(work)*w0.W
		send(0, blocks, work)
		recv(0)
		for g := 0; g < r/mu-st.K; g++ {
			send(g%res.Enrolled, mu*mu+3*rem*mu, rem*mu*mu)
		}
		for w := range held {
			recv(w)
		}
	}

	pol := sim.NewSequencePolicy("lu", ops)
	out, err := sim.Run(sim.Input{
		Platform: pl,
		Configs:  make([]sim.WorkerConfig, pl.P()), // StageCap 1
		Queues:   queues,
		Policy:   pol,
		Trace:    tr,
	})
	if err != nil {
		return ParallelResult{}, fmt.Errorf("lu: list schedule: %w", err)
	}
	if n := pol.Remaining(); n != 0 {
		return ParallelResult{}, fmt.Errorf("lu: list schedule left %d operations unplayed", n)
	}
	res.Makespan, res.Blocks, res.Work = out.Makespan, float64(out.Blocks), float64(out.Updates)
	return res, nil
}

// HeteroPlan is the outcome of the heterogeneous µ search of §7.3.
type HeteroPlan struct {
	Mu        int
	Shapes    []ChunkShape // per physical worker
	Virtual   []int        // virtual worker count per physical worker
	Seq       int          // physical worker index chosen for the prologue
	Estimated float64
}

// PlanHeterogeneous performs the overall process of §7.3: for each
// candidate pivot size µ it picks the fastest worker for the sequential
// phases, assigns chunk shapes (square iff µ_i ≤ µ/2, splitting workers
// with µ_i > µ into virtual ones), estimates the makespan with list
// scheduling, and retains the best µ.
func PlanHeterogeneous(pl *platform.Platform, r int) (*HeteroPlan, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	maxMu := 0
	for _, wk := range pl.Workers {
		if mu := MuForWorker(wk); mu > maxMu {
			maxMu = mu
		}
	}
	if maxMu < 1 {
		return nil, fmt.Errorf("lu: no worker can hold µ ≥ 1")
	}
	var best *HeteroPlan
	for mu := 1; mu <= maxMu; mu++ {
		if r%mu != 0 {
			continue
		}
		plan := planForMu(pl, r, mu)
		if best == nil || plan.Estimated < best.Estimated {
			best = plan
		}
	}
	if best == nil {
		return nil, fmt.Errorf("lu: no feasible µ divides r=%d", r)
	}
	return best, nil
}

// planForMu estimates the makespan for a fixed pivot size µ.
func planForMu(pl *platform.Platform, r, mu int) *HeteroPlan {
	plan := &HeteroPlan{Mu: mu}
	plan.Shapes = make([]ChunkShape, pl.P())
	plan.Virtual = make([]int, pl.P())
	fm := float64(mu)

	// Fastest worker for the sequential phases (pivot + panels): minimize
	// its combined comm+compute cost for one step of average size.
	bestSeq, bestSeqCost := 0, math.Inf(1)
	for i, wk := range pl.Workers {
		cost := 2*fm*fm*wk.C + fm*fm*fm*wk.W // pivot ferry + factor
		if cost < bestSeqCost {
			bestSeq, bestSeqCost = i, cost
		}
	}
	plan.Seq = bestSeq

	// Chunk shapes and virtual worker counts.
	type vworker struct {
		phys int
		rate float64 // block operations per time unit during core update
		comm float64 // port time consumed per unit of work it performs
	}
	var vs []vworker
	for i, wk := range pl.Workers {
		mui := MuForWorker(wk)
		if mui < 1 {
			plan.Virtual[i] = 0
			continue
		}
		if mui > mu {
			mui = mu
		}
		plan.Shapes[i] = ChooseShape(mui, mu, wk.C, wk.W)
		plan.Virtual[i] = VirtualWorkers(MuForWorker(wk), mu)
		// port time consumed per block operation under the chosen shape
		var commPerWork float64
		switch plan.Shapes[i] {
		case SquareChunk:
			commPerWork = 3 * wk.C / (float64(mui) * 1)
		case ColumnChunk:
			commPerWork = (fm + 2*float64(mui)*float64(mui)/fm) * wk.C / (float64(mui) * float64(mui))
		}
		for v := 0; v < plan.Virtual[i]; v++ {
			vs = append(vs, vworker{phys: i, rate: 1 / wk.W, comm: commPerWork})
		}
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a].comm < vs[b].comm })

	// Estimate: per step k, sequential prologue + core update where each
	// virtual worker computes at rate 1/w while consuming port bandwidth;
	// enroll virtual workers until the port saturates (Σ comm·rate ≤ 1),
	// then the step time is coreWork / aggregate-rate (or port-bound).
	steps, _ := Steps(r, mu)
	seqW := pl.Workers[plan.Seq]
	total := 0.0
	for _, st := range steps {
		prolog := (st.PivotComm+st.VPanelComm+st.HPanelComm)*seqW.C +
			(st.PivotWork+st.VPanelWork+st.HPanelWork)*seqW.W
		total += prolog
		if st.CoreWork == 0 {
			continue
		}
		var rate, portLoad float64
		for _, v := range vs {
			extra := v.comm * v.rate
			if portLoad+extra > 1 {
				// fractional enrollment up to port saturation
				frac := (1 - portLoad) / extra
				rate += frac * v.rate
				portLoad = 1
				break
			}
			portLoad += extra
			rate += v.rate
		}
		if rate == 0 {
			return &HeteroPlan{Mu: mu, Estimated: math.Inf(1), Shapes: plan.Shapes, Virtual: plan.Virtual, Seq: plan.Seq}
		}
		total += st.CoreWork / rate
	}
	plan.Estimated = total
	return plan
}

// Result converts a ParallelResult into the repository-wide result type.
func (r ParallelResult) Result(name string) core.Result {
	return core.Result{
		Algorithm: name,
		Makespan:  r.Makespan,
		Enrolled:  r.Enrolled,
		Blocks:    int64(r.Blocks),
		Updates:   int64(r.Work),
	}
}
