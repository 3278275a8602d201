package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bounds"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file scales the simulator from the paper's one-port testbed to
// commodity fleets: hundreds of heterogeneous workers, each behind its
// own link (switched network — the master NIC is not the bottleneck),
// with churn injected mid-job. It runs the live cluster's adaptive
// scheduling — EWMA speed profiles (internal/stats), per-worker chunk
// shaping over the lazy cutter, and speculative straggler re-dispatch,
// decided by the very rules the cluster calls (ChunkSide,
// StragglerGain) — against the FIFO + fixed-µ baseline, at task
// granularity and fully deterministically.

// FleetWorker describes one simulated worker.
type FleetWorker struct {
	Speed     float64 // block updates per second
	Bandwidth float64 // operand/result blocks per second over its link
	Latency   float64 // per-chunk dispatch overhead in seconds
	Mem       int     // advertised memory in blocks
	JoinAt    float64 // enrollment time (0 = present from the start)
}

// FleetEventKind classifies churn.
type FleetEventKind int

const (
	// FleetLeave kills the worker; its in-flight chunk is lost and
	// requeued (re-cut, in adaptive mode).
	FleetLeave FleetEventKind = iota
	// FleetSlowdown multiplies the worker's speed by Factor from At on —
	// the straggler injection (thermal throttling, a noisy neighbor).
	FleetSlowdown
)

// FleetEvent is one scheduled churn event.
type FleetEvent struct {
	At     float64
	Worker int
	Kind   FleetEventKind
	Factor float64 // FleetSlowdown: speed multiplier (0 < Factor)
}

// FleetConfig bundles one fleet simulation run.
type FleetConfig struct {
	Workers []FleetWorker
	R, S, T int // C is R×S blocks, updated over T steps
	// Mu is the global chunk side: the baseline's fixed size, and the
	// adaptive scheduler's fallback while a worker is unprofiled.
	Mu int
	// Adaptive is the cluster's adaptive configuration. Enabled, EWMA
	// profiles drive per-worker µ and speculative re-dispatch; off, the
	// run is the FIFO + locality baseline: chunks pre-cut at Mu in
	// row-band order, first idle worker served first.
	Adaptive AdaptiveConfig
	Events   []FleetEvent
	Trace    *trace.Trace
}

// FleetResult reports one run.
type FleetResult struct {
	Makespan      float64
	Chunks        int   // chunks committed
	Updates       int64 // committed block updates
	WastedUpdates int64 // duplicate/refused work (losing speculation copies)
	Requeues      int   // chunks lost to leaves and re-cut
	Speculations  int
	SpecWins      int // speculative duplicates that finished first
}

// fleetCopy is one dispatched copy of a chunk on one worker.
type fleetCopy struct {
	worker   int
	task     *fleetTask
	spec     bool
	start    float64 // dispatch instant
	commEnd  float64 // operands delivered
	compEnd  float64 // last update finishes (re-estimated on slowdown)
	factor   float64 // holder's speed factor when compEnd was computed
	rawSpeed float64 // holder's base speed at dispatch
}

// fleetTask is one chunk of C with up to two live copies (original +
// speculative duplicate).
type fleetTask struct {
	seq            int
	i0, j0         int
	rows, cols     int
	updates        int64
	blocks         int64 // wire blocks: 2·rows·cols + T·(rows+cols)
	copies         []*fleetCopy
	done           bool
	requeues       int
	everSpeculated bool
}

type fleetWorkerState struct {
	cfg    FleetWorker
	name   string
	alive  bool
	joined bool
	factor float64
	active *fleetCopy
	lane   string
	prof   stats.Profile // the estimator's view, refreshed per sample
}

// RunFleet simulates one fleet run to completion. The run is
// deterministic: identical configs produce identical results.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	if len(cfg.Workers) == 0 {
		return FleetResult{}, fmt.Errorf("sim: fleet has no workers")
	}
	if cfg.R < 1 || cfg.S < 1 || cfg.T < 1 {
		return FleetResult{}, fmt.Errorf("sim: bad fleet problem %dx%dx%d", cfg.R, cfg.S, cfg.T)
	}
	if cfg.Mu < 1 {
		return FleetResult{}, fmt.Errorf("sim: fleet µ must be ≥ 1")
	}
	est := stats.NewEstimator()

	ws := make([]*fleetWorkerState, len(cfg.Workers))
	for i, w := range cfg.Workers {
		if w.Speed <= 0 || w.Bandwidth <= 0 {
			return FleetResult{}, fmt.Errorf("sim: worker %d needs positive speed and bandwidth", i)
		}
		ws[i] = &fleetWorkerState{
			cfg: w, name: fmt.Sprintf("w%03d", i), lane: fmt.Sprintf("P%d", i+1),
			alive: w.JoinAt == 0, joined: w.JoinAt == 0, factor: 1,
		}
	}

	// Churn plus deferred joins form one sorted event stream.
	events := append([]FleetEvent(nil), cfg.Events...)
	for i, w := range cfg.Workers {
		if w.JoinAt > 0 {
			events = append(events, FleetEvent{At: w.JoinAt, Worker: i, Kind: FleetEventKind(-1)})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	for _, ev := range events {
		if ev.Worker < 0 || ev.Worker >= len(ws) {
			return FleetResult{}, fmt.Errorf("sim: fleet event references worker %d of %d", ev.Worker, len(ws))
		}
		if ev.Kind == FleetSlowdown && ev.Factor <= 0 {
			return FleetResult{}, fmt.Errorf("sim: slowdown factor must be positive")
		}
	}

	var (
		res       FleetResult
		cutter    *Cutter      // adaptive: uncut remainder of C
		queue     []*fleetTask // baseline: pre-cut FIFO pool
		tasks     []*fleetTask // carved tasks not yet retired, by seq
		remaining = cfg.R * cfg.S
		nextSeq   int
		now       float64
	)
	newTask := func(i0, j0, rows, cols int) *fleetTask {
		t := &fleetTask{
			seq: nextSeq, i0: i0, j0: j0, rows: rows, cols: cols,
			updates: int64(rows) * int64(cols) * int64(cfg.T),
			blocks:  2*int64(rows)*int64(cols) + int64(cfg.T)*int64(rows+cols),
		}
		nextSeq++
		tasks = append(tasks, t)
		return t
	}
	if cfg.Adaptive.Enabled {
		cutter = NewCutter(cfg.R, cfg.S)
	} else {
		c := NewCutter(cfg.R, cfg.S) // row-band order = the locality tour
		for !c.Empty() {
			i0, j0, rows, cols, _ := c.Cut(cfg.Mu, nil)
			queue = append(queue, newTask(i0, j0, rows, cols))
		}
	}

	dispatch := func(st *fleetWorkerState, w int, tk *fleetTask, spec bool) {
		speed := st.cfg.Speed * st.factor
		c := &fleetCopy{
			worker: w, task: tk, spec: spec, start: now, factor: st.factor,
			rawSpeed: st.cfg.Speed,
		}
		c.commEnd = now + st.cfg.Latency + float64(tk.blocks)/st.cfg.Bandwidth
		c.compEnd = c.commEnd + float64(tk.updates)/speed
		tk.copies = append(tk.copies, c)
		st.active = c
		if spec {
			tk.everSpeculated = true
			res.Speculations++
		}
	}

	// speculate picks the in-flight chunk an idle worker should
	// duplicate: the one StragglerGain says a copy would save the most
	// time on. The profile's bandwidth is in blocks/s here, so the
	// transfer is the chunk's wire blocks. The scan drops the tasks it
	// finds retired for good: committed, or lost and re-cut.
	speculate := func(st *fleetWorkerState, w int) *fleetTask {
		var best *fleetTask
		var bestGain float64
		live := tasks[:0]
		for _, tk := range tasks {
			if tk.done || len(tk.copies) == 0 {
				continue
			}
			live = append(live, tk)
			if len(tk.copies) != 1 {
				continue
			}
			c := tk.copies[0]
			if c.worker == w || !ws[c.worker].alive {
				continue
			}
			gain, ok := cfg.Adaptive.StragglerGain(ws[c.worker].prof, st.prof, float64(tk.updates), float64(tk.blocks), now-c.start)
			if ok && (best == nil || gain > bestGain) {
				best, bestGain = tk, gain
			}
		}
		tasks = live
		return best
	}

	assign := func(w int) {
		st := ws[w]
		if !st.alive || st.active != nil {
			return
		}
		if cfg.Adaptive.Enabled {
			if !cutter.Empty() {
				mu := cfg.Adaptive.ChunkSide(st.prof, cfg.T, cfg.Mu, st.cfg.Mem)
				if mu < 1 {
					return
				}
				i0, j0, rows, cols, _ := cutter.Cut(mu, nil)
				dispatch(st, w, newTask(i0, j0, rows, cols), false)
				return
			}
			if tk := speculate(st, w); tk != nil {
				dispatch(st, w, tk, true)
			}
			return
		}
		if len(queue) > 0 {
			tk := queue[0]
			queue = queue[1:]
			dispatch(st, w, tk, false)
		}
	}
	assignAll := func() {
		for w := range ws {
			assign(w)
		}
	}

	emitSpans := func(c *fleetCopy, end float64, label string) {
		st := ws[c.worker]
		cfg.Trace.Add(st.lane, trace.Comm, c.start, min(c.commEnd, end), label)
		kind := trace.Compute
		if c.spec {
			kind = trace.Spec
		}
		cfg.Trace.Add(st.lane, kind, c.commEnd, end, label)
	}

	// complete retires one copy at its compEnd: the first copy of a task
	// to finish commits it; a later copy's work was wasted (the live
	// cluster refuses its flush through the epoch/dirty-tile path).
	complete := func(c *fleetCopy) {
		st := ws[c.worker]
		st.active = nil
		tk := c.task
		label := fmt.Sprintf("#%d %dx%d", tk.seq, tk.rows, tk.cols)
		emitSpans(c, c.compEnd, label)
		// The holder's real timing feeds its profile — including the
		// slowdown it may have suffered, which is what steers future µ.
		est.ObserveCompute(st.name, 0, tk.updates, secsToDur(c.compEnd-c.commEnd))
		est.ObserveTransfer(st.name, 0, tk.blocks, secsToDur(c.commEnd-c.start))
		st.prof, _ = est.Profile(st.name)
		for i, o := range tk.copies {
			if o == c {
				tk.copies = append(tk.copies[:i], tk.copies[i+1:]...)
				break
			}
		}
		if tk.done {
			res.WastedUpdates += tk.updates // refused: the duplicate won
			return
		}
		tk.done = true
		remaining -= tk.rows * tk.cols
		res.Chunks++
		res.Updates += tk.updates
		if c.spec {
			res.SpecWins++
		}
	}

	lose := func(w int) {
		st := ws[w]
		c := st.active
		st.active = nil
		if c == nil {
			return
		}
		tk := c.task
		emitSpans(c, now, fmt.Sprintf("#%d lost", tk.seq))
		for i, o := range tk.copies {
			if o == c {
				tk.copies = append(tk.copies[:i], tk.copies[i+1:]...)
				break
			}
		}
		if tk.done || len(tk.copies) > 0 {
			return // committed already, or a duplicate carries the work
		}
		res.Requeues++
		if cfg.Adaptive.Enabled {
			cutter.Free(tk.i0, tk.j0, tk.rows, tk.cols) // re-cut for survivors
		} else {
			queue = append(queue, tk)
		}
	}

	ei := 0
	assignAll()
	for remaining > 0 {
		// Next completion vs next event, deterministically (events first
		// on ties, workers by index).
		tc, cw := math.Inf(1), -1
		for w, st := range ws {
			if st.active != nil && st.active.compEnd < tc {
				tc, cw = st.active.compEnd, w
			}
		}
		if ei < len(events) && events[ei].At <= tc {
			ev := events[ei]
			ei++
			now = math.Max(now, ev.At)
			st := ws[ev.Worker]
			switch ev.Kind {
			case FleetLeave:
				if st.alive {
					st.alive = false
					lose(ev.Worker)
				}
			case FleetSlowdown:
				if st.alive {
					old := st.factor
					st.factor = ev.Factor
					if c := st.active; c != nil {
						// Remaining compute stretches by old/new speed.
						from := math.Max(now, c.commEnd)
						c.compEnd = from + (c.compEnd-from)*old/st.factor
					}
				}
			default: // deferred join
				if !st.joined {
					st.joined, st.alive = true, true
				}
			}
			assignAll()
			continue
		}
		if cw < 0 {
			return res, fmt.Errorf("sim: fleet deadlocked with %d blocks uncommitted (all workers dead?)", remaining)
		}
		now = tc
		complete(ws[cw].active)
		assignAll()
	}
	res.Makespan = now
	return res, nil
}

// secsToDur converts simulated seconds to the time.Duration the shared
// estimator consumes, at nanosecond resolution.
func secsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }

// ChurnFleet builds the pinned heterogeneous-fleet scenario: n workers
// in three speed classes (100/400/1600 updates/s, interleaved by index,
// a 16× spread end to end) behind class-proportional links fast enough
// that the fleet is compute-bound in aggregate, 80 blocks of memory
// each (µ ≤ 8), and 10% churn — half the churned workers throttle to a
// tenth of their speed at t = 4 s (stragglers, from the fast class), half
// leave at t = 6 s (from the medium class) — over a grid×grid-block C
// updated in depth steps. The baseline runs one global µ sized to the
// fleet memory for maximum operand reuse (µ = 8); the adaptive run
// starts from a modest submit-time guess (µ = 2), lets live profiles
// shape per-worker chunks at the default chunk target, and speculates
// at factor 1.5.
func ChurnFleet(n, grid, depth int, adaptive bool) FleetConfig {
	cfg := FleetConfig{Workers: make([]FleetWorker, n), R: grid, S: grid, T: depth, Mu: 8}
	for i := range cfg.Workers {
		speed, bw := 100.0, 5000.0
		switch i % 3 {
		case 1:
			speed, bw = 400, 10000
		case 2:
			speed, bw = 1600, 20000
		}
		cfg.Workers[i] = FleetWorker{Speed: speed, Bandwidth: bw, Latency: 0.005, Mem: 80}
	}
	for k := 0; k < n/10; k++ {
		if k%2 == 0 {
			cfg.Events = append(cfg.Events, FleetEvent{At: 4, Worker: (3*k + 2) % n, Kind: FleetSlowdown, Factor: 0.1})
		} else {
			cfg.Events = append(cfg.Events, FleetEvent{At: 6, Worker: (3*k + 1) % n, Kind: FleetLeave})
		}
	}
	if adaptive {
		cfg.Mu = 2
		cfg.Adaptive = AdaptiveConfig{Enabled: true, SpeculationFactor: 1.5}
	}
	return cfg
}

// LowerBound is the LP makespan floor of the run: every block update of
// the product spread over the fleet's aggregate steady-state rate
// (bounds.FleetWorkerRate per worker, at its memory's best µ).
func (cfg FleetConfig) LowerBound() float64 {
	rates := make([]float64, len(cfg.Workers))
	for i, w := range cfg.Workers {
		rates[i] = bounds.FleetWorkerRate(w.Speed, w.Bandwidth, w.Mem, cfg.T)
	}
	return bounds.FleetMakespanLB(int64(cfg.R)*int64(cfg.S)*int64(cfg.T), rates)
}
