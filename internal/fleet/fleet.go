// Package fleet drives the cluster scheduler, through its public API,
// in virtual time. Every worker is a real cluster.Session, every
// decision the scheduler's own and every tile engine.RunAssign's; only
// the timing is scripted. Run times a commodity fleet: hundreds of
// heterogeneous workers, each behind its own link (a switched network —
// the master NIC is not the bottleneck), with churn injected mid-job.
// RunOnePort times the paper's one-port star through sim.Run instead:
// the heterogeneity sweep's demand-driven baseline.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Worker describes one scripted worker.
type Worker struct {
	Speed     float64 // block updates per second
	Bandwidth float64 // operand/result blocks per second over its link
	Latency   float64 // per-chunk dispatch overhead in seconds
	Mem       int     // advertised memory in blocks
	JoinAt    float64 // enrollment time (0 = present from the start)
}

// EventKind classifies churn.
type EventKind int

const (
	// Leave kills the worker: its session closes, and the scheduler
	// requeues the chunk it was computing.
	Leave EventKind = iota
	// Slowdown multiplies the worker's speed by Factor from At on — the
	// straggler injection (thermal throttling, a noisy neighbor).
	Slowdown

	// join is a deferred join, from Worker.JoinAt.
	join EventKind = -1
)

// Event is one scheduled churn event.
type Event struct {
	At     float64
	Worker int
	Kind   EventKind
	Factor float64 // Slowdown: speed multiplier (0 < Factor)
}

// Config bundles one fleet run: an R×S-block product of depth T (q = 1)
// submitted as one job of chunk side Mu.
type Config struct {
	Workers []Worker
	R, S, T int // C is R×S blocks, updated over T steps
	// Mu is the job's chunk side: every chunk's with adaptation off, an
	// unprofiled worker's with it on.
	Mu int
	// Adaptive is the cluster's adaptive configuration. Enabled, EWMA
	// profiles drive per-worker µ and speculative re-dispatch; off, the
	// run is the FIFO + locality baseline at µ = Mu.
	Adaptive cluster.AdaptiveConfig
	Events   []Event
	Trace    *trace.Trace
}

// Result reports one run.
type Result struct {
	Makespan      float64
	Chunks        int   // chunks committed
	Updates       int64 // committed block updates
	WastedUpdates int64 // duplicate work refused as stale (losing speculation copies)
	Requeues      int   // chunk copies lost to leaves
	Speculations  int
	SpecWins      int // speculative duplicates that finished first
}

// chunkCopy is one dispatched chunk copy on one worker.
type chunkCopy struct {
	as                      *engine.Assign // its Blocks: the tile, computed at dispatch
	spec                    bool
	updates                 int64
	start, commEnd, compEnd float64 // dispatch, operands delivered, last update done
}

// worker is one scripted worker.
type worker struct {
	cfg        Worker
	name, lane string
	sess       *cluster.Session // nil before it joins and once it left
	factor     float64
	cp         *chunkCopy // computing
}

// runner is one Run in progress.
type runner struct {
	cfg  Config
	cl   *cluster.Cluster
	clk  *cluster.ManualClock
	pool *engine.BlockPool // recycles the workers' update sets
	ws   []*worker
	now  float64
	res  Result
	done <-chan struct{}
}

// Run submits the fleet's product as one job to a cluster on a
// ManualClock, joins one slots-1 session per worker at its JoinAt, and
// runs in virtual time until the job is done. The run is
// deterministic: identical configs produce identical results.
func Run(cfg Config) (Result, error) {
	res, _, err := run(cfg)
	return res, err
}

// run is Run; it also returns the job's spec, whose C holds the
// committed product.
func run(cfg Config) (Result, cluster.JobSpec, error) {
	events, err := cfg.events()
	if err != nil {
		return Result{}, cluster.JobSpec{}, err
	}
	return drive(cfg, func(r *runner) error { return r.loop(events) })
}

// drive submits cfg's product — A and B deterministically filled,
// q = 1 — as one job of chunk side cfg.Mu to a cluster on a ManualClock,
// with one scripted worker per cfg.Workers, none joined yet, and runs
// body, which must bring the job to Done.
func drive(cfg Config, body func(*runner) error) (Result, cluster.JobSpec, error) {
	r := &runner{cfg: cfg, clk: cluster.NewManualClock(time.Unix(0, 0)), pool: engine.NewBlockPool()}
	for i, w := range cfg.Workers {
		r.ws = append(r.ws, &worker{cfg: w, name: fmt.Sprintf("w%03d", i), lane: fmt.Sprintf("P%d", i+1), factor: 1})
	}
	r.cl = cluster.New(cluster.Config{Clock: r.clk, Adaptive: cfg.Adaptive, HeartbeatTimeout: math.MaxInt64})
	defer r.cl.Close()
	a, b := matrix.NewDense(cfg.R, cfg.T), matrix.NewDense(cfg.T, cfg.S)
	matrix.DeterministicFill(a, 1)
	matrix.DeterministicFill(b, 2)
	spec := cluster.JobSpec{Kind: cluster.MatMul, C: matrix.NewBlocked(cfg.R, cfg.S, 1),
		A: matrix.Partition(a, 1), B: matrix.Partition(b, 1), Mu: cfg.Mu}
	id, err := r.cl.SubmitJob(spec)
	if err == nil {
		r.done, _ = r.cl.Done(id)
		err = body(r)
	}
	if err != nil {
		return Result{}, cluster.JobSpec{}, err
	}
	st, _ := r.cl.JobStatus(id)
	if st.State != cluster.Done {
		return Result{}, cluster.JobSpec{}, fmt.Errorf("fleet: job %s: %v", st.State, st.Err)
	}
	cs := r.cl.ClusterStats()
	r.res.Chunks, r.res.Requeues = st.TasksDone, cs.Requeues
	r.res.Speculations, r.res.SpecWins = cs.Speculations, cs.SpecWins
	return r.res, spec, nil
}

// RunOnePort runs pr as one job of the cluster scheduler on the paper's
// one-port star pl (§2.2): the chunks and their order are the
// scheduler's own, sim.Run times them first come first served, one
// staging buffer per worker. The job is Run's product at µ = max µᵢ;
// each worker with µᵢ ≥ 1 joins with memory for one µᵢ×µᵢ chunk and one
// staged set, so the scheduler's clamp cuts the paper's µᵢ. A worker's
// first peek after sim retrieved its chunk acks and commits it and takes
// the next task, which sim sees until it sends it.
func RunOnePort(pl *platform.Platform, pr core.Problem, tr *trace.Trace) (core.Result, error) {
	res, _, err := runOnePort(pl, pr, tr)
	return res, err
}

// runOnePort is RunOnePort; it also returns the job's spec.
func runOnePort(pl *platform.Platform, pr core.Problem, tr *trace.Trace) (core.Result, cluster.JobSpec, error) {
	if err := errors.Join(pl.Validate(), pr.Validate()); err != nil {
		return core.Result{}, cluster.JobSpec{}, err
	}
	mus := pl.Mus()
	cfg := Config{Workers: make([]Worker, pl.P()), R: pr.R, S: pr.S, T: pr.T, Mu: slices.Max(mus)}
	for i, wk := range pl.Workers {
		cfg.Workers[i] = Worker{Speed: 1 / wk.W, Bandwidth: 1 / wk.C, Mem: engine.Ledger{}.Add(mus[i], mus[i]).Blocks()}
	}
	var res sim.Result
	_, spec, err := drive(cfg, func(r *runner) (err error) {
		for i, w := range r.ws {
			if mus[i] >= 1 && err == nil {
				w.sess, err = r.cl.JoinWorker(w.name, w.cfg.Mem, 1)
			}
		}
		offer := make([]*sim.Chunk, pl.P()) // each worker's task, from the peek that took it to its retrieval
		sent := make([]bool, pl.P())
		source := func(i int, claim bool) *sim.Chunk {
			w := r.ws[i]
			if claim {
				sent[i] = true
				return offer[i]
			}
			if sent[i] { // sim retrieved it
				offer[i], sent[i] = nil, false
				err = cmp.Or(err, r.complete(w))
			}
			if offer[i] == nil && w.sess != nil && err == nil {
				if err = r.dispatch(w); w.cp != nil {
					as := w.cp.as
					offer[i] = &sim.Chunk{ID: int(as.ID.B), I0: as.I0, J0: as.J0, Rows: as.Rows, Cols: as.Cols, Blocks: as.Rows * as.Cols,
						Steps: slices.Repeat([]sim.Step{{Blocks: as.Rows + as.Cols, Updates: int64(as.Rows) * int64(as.Cols)}}, as.Steps)}
				}
			}
			return offer[i]
		}
		var serr error
		res, serr = sim.Run(sim.Input{Platform: pl, Configs: slices.Repeat([]sim.WorkerConfig{{StageCap: 1}}, pl.P()),
			Source: source, Policy: sim.NewDemandPolicy("cluster", sim.FirstToReceive), Trace: tr})
		return cmp.Or(err, serr)
	})
	if err != nil {
		return core.Result{}, cluster.JobSpec{}, err
	}
	return res.Core("cluster"), spec, nil
}

// events checks the config and returns its joins and churn as one
// stream sorted by time, joins first among equal times.
func (cfg Config) events() ([]Event, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers")
	}
	if cfg.R < 1 || cfg.S < 1 || cfg.T < 1 {
		return nil, fmt.Errorf("fleet: bad problem %dx%dx%d", cfg.R, cfg.S, cfg.T)
	}
	var events []Event
	for i, w := range cfg.Workers {
		if w.Speed <= 0 || w.Bandwidth <= 0 {
			return nil, fmt.Errorf("fleet: worker %d needs positive speed and bandwidth", i)
		}
		events = append(events, Event{At: w.JoinAt, Worker: i, Kind: join})
	}
	for _, ev := range cfg.Events {
		if ev.Worker < 0 || ev.Worker >= len(cfg.Workers) {
			return nil, fmt.Errorf("fleet: event references worker %d of %d", ev.Worker, len(cfg.Workers))
		}
		if ev.Kind == Slowdown && ev.Factor <= 0 {
			return nil, errors.New("fleet: slowdown factor must be positive")
		}
	}
	events = append(events, cfg.Events...)
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	return events, nil
}

// loop advances virtual time event by event — the next join or churn
// event, else the earliest completion (events first on ties, workers by
// index) — and after each gives every idle worker, by index, a dispatch
// attempt, until the job finishes.
func (r *runner) loop(events []Event) error {
	for {
		tc, cw := math.Inf(1), -1
		for i, w := range r.ws {
			if w.cp != nil && w.cp.compEnd < tc {
				tc, cw = w.cp.compEnd, i
			}
		}
		var err error
		switch {
		case len(events) > 0 && events[0].At <= tc:
			r.advance(events[0].At)
			err = r.apply(events[0])
			events = events[1:]
		case cw >= 0:
			r.advance(tc)
			err = r.complete(r.ws[cw])
		default:
			st := r.cl.Jobs()[0]
			return fmt.Errorf("fleet: stalled with %d of %d chunks committed (every worker gone?)",
				st.TasksDone, st.TasksTotal)
		}
		for _, w := range r.ws {
			if err == nil && w.sess != nil && w.cp == nil {
				err = r.dispatch(w)
			}
		}
		if err != nil {
			return err
		}
		select {
		case <-r.done:
			r.res.Makespan = r.now
			return nil
		default:
		}
	}
}

// advance moves virtual time, and the cluster's clock, to t.
func (r *runner) advance(t float64) {
	r.now = math.Max(r.now, t)
	r.clk.Advance(secsToDur(r.now) - r.clk.Now().Sub(time.Unix(0, 0)))
}

// apply runs one join or churn event.
func (r *runner) apply(ev Event) error {
	w := r.ws[ev.Worker]
	var err error
	switch {
	case ev.Kind == join:
		w.sess, err = r.cl.JoinWorker(w.name, w.cfg.Mem, 1)
	case w.sess == nil: // churn before the join or after the leave
	case ev.Kind == Leave:
		if c := w.cp; c != nil {
			r.spans(w, c, r.now, fmt.Sprintf("#%d lost", c.as.ID.B))
		}
		w.sess.Close(cluster.SessionReport{})
		w.sess, w.cp = nil, nil
	case ev.Kind == Slowdown:
		old := w.factor
		w.factor = ev.Factor
		if c := w.cp; c != nil {
			// The remaining compute stretches by old/new speed.
			from := math.Max(r.now, c.commEnd)
			c.compEnd = from + (c.compEnd-from)*old/w.factor
		}
	}
	return err
}

// dispatch asks the scheduler for w's next task without blocking
// (TryNext) and starts the copy it hands out: the tile computed by
// engine.RunAssign from the session's update sets, its transfer and
// compute timed from w's link and speed.
func (r *runner) dispatch(w *worker) error {
	as, err := w.sess.TryNext()
	if as == nil || err != nil {
		return err
	}
	c := &chunkCopy{as: as, updates: int64(as.Rows) * int64(as.Cols) * int64(as.Steps), start: r.now}
	for _, o := range r.ws {
		// A second copy of a seq in flight is a speculative duplicate.
		c.spec = c.spec || o.cp != nil && o.cp.as.ID.A == as.ID.A && o.cp.as.ID.B == as.ID.B
	}
	if err := engine.RunAssign(as, w.sess, r.pool); err != nil {
		return err
	}
	blocks := 2*int64(as.Rows)*int64(as.Cols) + int64(as.Steps)*int64(as.Rows+as.Cols)
	c.commEnd = r.now + w.cfg.Latency + float64(blocks)/w.cfg.Bandwidth
	c.compEnd = c.commEnd + float64(c.updates)/(w.cfg.Speed*w.factor)
	w.cp = c
	return nil
}

// complete reports w's copy finished: its Result — compute timing and
// tile — either commits, as a worker's does, or finds the copy revoked
// — a duplicate won — and the work wasted.
func (r *runner) complete(w *worker) error {
	c := w.cp
	w.cp = nil
	r.spans(w, c, c.compEnd, fmt.Sprintf("#%d %dx%d", c.as.ID.B, c.as.Rows, c.as.Cols))
	res := &engine.Result{ID: c.as.ID, Blocks: c.as.Blocks,
		Updates: c.updates, ComputeNS: int64(secsToDur(c.compEnd - c.commEnd))}
	err := w.sess.Commit(res, engine.CommStats{})
	if errors.Is(err, cluster.ErrStaleTask) {
		r.res.WastedUpdates += c.updates
		return nil
	}
	if err == nil {
		r.res.Updates += c.updates
	}
	return err
}

// spans traces copy c on w's lane up to end: its transfer, then its
// compute (Spec for a duplicate).
func (r *runner) spans(w *worker, c *chunkCopy, end float64, label string) {
	r.cfg.Trace.Add(w.lane, trace.Comm, c.start, min(c.commEnd, end), label)
	kind := trace.Compute
	if c.spec {
		kind = trace.Spec
	}
	r.cfg.Trace.Add(w.lane, kind, c.commEnd, end, label)
}

// secsToDur converts virtual seconds to a time.Duration, at nanosecond
// resolution.
func secsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }

// Churn builds the pinned heterogeneous-fleet scenario: n workers in
// three speed classes (100/400/1600 updates/s, interleaved by index, a
// 16× spread end to end) behind class-proportional links fast enough
// that the fleet is compute-bound in aggregate, memory for one 8×8
// chunk each (µ ≤ 8), and 10% churn — half the churned workers throttle to a
// tenth of their speed at t = 4 s (stragglers, from the fast class), half
// leave at t = 6 s (from the medium class) — over a grid×grid-block C
// updated in depth steps. The baseline runs one global µ sized to the
// fleet memory for maximum operand reuse (µ = 8); the adaptive run
// starts from a modest submit-time guess (µ = 2), lets live profiles
// shape per-worker chunks at the default chunk target, and speculates
// at factor 1.5.
func Churn(n, grid, depth int, adaptive bool) Config {
	cfg := Config{Workers: make([]Worker, n), R: grid, S: grid, T: depth, Mu: 8}
	for i := range cfg.Workers {
		speed, bw := 100.0, 5000.0
		switch i % 3 {
		case 1:
			speed, bw = 400, 10000
		case 2:
			speed, bw = 1600, 20000
		}
		cfg.Workers[i] = Worker{Speed: speed, Bandwidth: bw, Latency: 0.005, Mem: engine.Ledger{}.Add(8, 8).Blocks()}
	}
	for k := 0; k < n/10; k++ {
		if k%2 == 0 {
			cfg.Events = append(cfg.Events, Event{At: 4, Worker: (3*k + 2) % n, Kind: Slowdown, Factor: 0.1})
		} else {
			cfg.Events = append(cfg.Events, Event{At: 6, Worker: (3*k + 1) % n, Kind: Leave})
		}
	}
	if adaptive {
		cfg.Mu = 2
		cfg.Adaptive = cluster.AdaptiveConfig{Enabled: true, SpeculationFactor: 1.5}
	}
	return cfg
}

// LowerBound is the LP makespan floor of the run: every block update of
// the product spread over the fleet's aggregate steady-state rate
// (bounds.FleetWorkerRate per worker, at its memory's best µ).
func (cfg Config) LowerBound() float64 {
	rates := make([]float64, len(cfg.Workers))
	for i, w := range cfg.Workers {
		rates[i] = bounds.FleetWorkerRate(w.Speed, w.Bandwidth, w.Mem, cfg.T)
	}
	return bounds.FleetMakespanLB(int64(cfg.R)*int64(cfg.S)*int64(cfg.T), rates)
}
