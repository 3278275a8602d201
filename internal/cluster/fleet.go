package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/blas"
	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// A fleet run drives the scheduler over a scripted commodity fleet:
// hundreds of heterogeneous workers, each behind its own link (a
// switched network — the master NIC is not the bottleneck), with churn
// injected mid-job. Every worker is a real Session and every decision
// the scheduler's own; only the timing is scripted, in virtual time,
// from each worker's speed, bandwidth and latency.

// FleetWorker describes one scripted worker.
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
	// FleetLeave kills the worker: its session closes, and the
	// scheduler requeues the chunk it was computing.
	FleetLeave FleetEventKind = iota
	// FleetSlowdown multiplies the worker's speed by Factor from At on —
	// the straggler injection (thermal throttling, a noisy neighbor).
	FleetSlowdown

	// fleetJoin is a deferred join, from FleetWorker.JoinAt.
	fleetJoin FleetEventKind = -1
)

// FleetEvent is one scheduled churn event.
type FleetEvent struct {
	At     float64
	Worker int
	Kind   FleetEventKind
	Factor float64 // FleetSlowdown: speed multiplier (0 < Factor)
}

// FleetConfig bundles one fleet run: an R×S-block product of depth T
// (q = 1) submitted as one job of chunk side Mu.
type FleetConfig struct {
	Workers []FleetWorker
	R, S, T int // C is R×S blocks, updated over T steps
	// Mu is the job's chunk side: every chunk's with adaptation off, an
	// unprofiled worker's with it on.
	Mu int
	// Adaptive is the cluster's adaptive configuration. Enabled, EWMA
	// profiles drive per-worker µ and speculative re-dispatch; off, the
	// run is the FIFO + locality baseline at µ = Mu.
	Adaptive AdaptiveConfig
	Events   []FleetEvent
	Trace    *trace.Trace
}

// FleetResult reports one run.
type FleetResult struct {
	Makespan      float64
	Chunks        int   // chunks committed
	Updates       int64 // committed block updates
	WastedUpdates int64 // duplicate work refused as stale (losing speculation copies)
	Requeues      int   // chunk copies lost to leaves
	Speculations  int
	SpecWins      int // speculative duplicates that finished first
}

// fleetCopy is one dispatched chunk copy on one worker.
type fleetCopy struct {
	id                      engine.AssignID
	label                   string
	spec                    bool
	updates                 int64
	ids                     []uint64    // the tile's C block IDs, row-major
	tile                    [][]float64 // its computed value
	start, commEnd, compEnd float64     // dispatch, operands delivered, last update done
}

// fleetWorker is one scripted worker.
type fleetWorker struct {
	cfg        FleetWorker
	name, lane string
	sess       *Session // nil before it joins and once it left
	factor     float64
	cp         *fleetCopy // computing
	dirty      *fleetCopy // acknowledged, resident until the flush demand
}

// fleetRun is one RunFleet in progress.
type fleetRun struct {
	cfg  FleetConfig
	cl   *Cluster
	clk  *ManualClock
	ws   []*fleetWorker
	now  float64
	res  FleetResult
	done <-chan struct{}
}

// RunFleet submits the fleet's product as one job to a cluster on a
// ManualClock, joins one slots-1 session per worker at its JoinAt, and
// runs in virtual time until the job is done. The run is
// deterministic: identical configs produce identical results.
func RunFleet(cfg FleetConfig) (FleetResult, error) {
	res, _, err := runFleet(cfg)
	return res, err
}

// runFleet is RunFleet; it also returns the job's spec, whose C holds
// the committed product.
func runFleet(cfg FleetConfig) (FleetResult, JobSpec, error) {
	events, err := cfg.events()
	if err != nil {
		return FleetResult{}, JobSpec{}, err
	}
	r := &fleetRun{cfg: cfg, clk: NewManualClock(time.Unix(0, 0))}
	for i, w := range cfg.Workers {
		r.ws = append(r.ws, &fleetWorker{cfg: w, name: fmt.Sprintf("w%03d", i), lane: fmt.Sprintf("P%d", i+1), factor: 1})
	}
	r.cl = New(Config{Clock: r.clk, Adaptive: cfg.Adaptive, HeartbeatTimeout: math.MaxInt64})
	defer r.cl.Close()
	a, b := matrix.NewDense(cfg.R, cfg.T), matrix.NewDense(cfg.T, cfg.S)
	matrix.DeterministicFill(a, 1)
	matrix.DeterministicFill(b, 2)
	spec := JobSpec{Kind: MatMul, C: matrix.NewBlocked(cfg.R, cfg.S, 1),
		A: matrix.Partition(a, 1), B: matrix.Partition(b, 1), Mu: cfg.Mu}
	id, err := r.cl.SubmitJob(spec)
	if err == nil {
		r.done, _ = r.cl.Done(id)
		err = r.loop(events)
	}
	if err != nil {
		return FleetResult{}, JobSpec{}, err
	}
	st, _ := r.cl.JobStatus(id)
	if st.State != Done {
		return FleetResult{}, JobSpec{}, fmt.Errorf("cluster: fleet job %s: %v", st.State, st.Err)
	}
	cs := r.cl.ClusterStats()
	r.res.Chunks, r.res.Requeues = st.TasksDone, cs.Requeues
	r.res.Speculations, r.res.SpecWins = cs.Speculations, cs.SpecWins
	return r.res, spec, nil
}

// events checks the config and returns its joins and churn as one
// stream sorted by time, joins first among equal times.
func (cfg FleetConfig) events() ([]FleetEvent, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: fleet has no workers")
	}
	if cfg.R < 1 || cfg.S < 1 || cfg.T < 1 {
		return nil, fmt.Errorf("cluster: bad fleet problem %dx%dx%d", cfg.R, cfg.S, cfg.T)
	}
	var events []FleetEvent
	for i, w := range cfg.Workers {
		if w.Speed <= 0 || w.Bandwidth <= 0 {
			return nil, fmt.Errorf("cluster: fleet worker %d needs positive speed and bandwidth", i)
		}
		events = append(events, FleetEvent{At: w.JoinAt, Worker: i, Kind: fleetJoin})
	}
	for _, ev := range cfg.Events {
		if ev.Worker < 0 || ev.Worker >= len(cfg.Workers) {
			return nil, fmt.Errorf("cluster: fleet event references worker %d of %d", ev.Worker, len(cfg.Workers))
		}
		if ev.Kind == FleetSlowdown && ev.Factor <= 0 {
			return nil, errors.New("cluster: fleet slowdown factor must be positive")
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
func (r *fleetRun) loop(events []FleetEvent) error {
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
			return fmt.Errorf("cluster: fleet stalled with %d of %d chunks committed (every worker gone?)",
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
func (r *fleetRun) advance(t float64) {
	r.now = math.Max(r.now, t)
	r.clk.Advance(secsToDur(r.now) - r.clk.Now().Sub(time.Unix(0, 0)))
}

// apply runs one join or churn event.
func (r *fleetRun) apply(ev FleetEvent) error {
	w := r.ws[ev.Worker]
	var err error
	switch {
	case ev.Kind == fleetJoin:
		w.sess, err = r.cl.JoinWorker(w.name, w.cfg.Mem, 1)
	case w.sess == nil: // churn before the join or after the leave
	case ev.Kind == FleetLeave:
		if c := w.cp; c != nil {
			r.spans(w, c, r.now, fmt.Sprintf("#%d lost", c.id.B))
		}
		w.sess.Close(SessionReport{})
		w.sess, w.cp, w.dirty = nil, nil, nil
	case ev.Kind == FleetSlowdown:
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

// dispatch asks the scheduler for w's next task without blocking,
// answering a flush demand with w's resident tile first, and starts
// the copy it hands out: the tile computed from the session's update
// sets, its transfer and compute timed from w's link and speed.
func (r *fleetRun) dispatch(w *fleetWorker) error {
	as, err := w.sess.next(false)
	if errors.Is(err, engine.ErrFlushWanted) {
		d := w.dirty
		if d == nil {
			return fmt.Errorf("cluster: flush demanded of %s, which holds no resident tile", w.name)
		}
		if err := w.sess.CommitFlush(d.ids, d.tile); err != nil {
			return err
		}
		r.res.Updates += d.updates
		w.dirty = nil
		as, err = w.sess.next(false)
	}
	if as == nil || err != nil {
		return err
	}
	c := &fleetCopy{
		id:      as.ID,
		label:   fmt.Sprintf("#%d %dx%d", as.ID.B, as.Rows, as.Cols),
		updates: int64(as.Rows) * int64(as.Cols) * int64(as.Steps),
		start:   r.now,
	}
	for _, o := range r.ws {
		// A second copy of a seq in flight is a speculative duplicate.
		c.spec = c.spec || o.cp != nil && o.cp.id.A == as.ID.A && o.cp.id.B == as.ID.B
	}
	shipped := as.Blocks
	for n, f := range as.CFlags {
		c.ids = append(c.ids, engine.CBlockID(as.ID.A, as.I0+n/as.Cols, as.J0+n%as.Cols))
		if f == engine.CShip {
			c.tile, shipped = append(c.tile, shipped[0]), shipped[1:]
		} else {
			c.tile = append(c.tile, make([]float64, as.Q*as.Q))
		}
	}
	for k := 0; k < as.Steps; k++ {
		set, err := w.sess.Set(as.ID, k)
		if err != nil {
			return err
		}
		blas.UpdateChunk(c.tile, set.A, set.B, as.Rows, as.Cols, as.Q)
		r.cl.pool.PutSet(set)
	}
	blocks := 2*int64(as.Rows)*int64(as.Cols) + int64(as.Steps)*int64(as.Rows+as.Cols)
	c.commEnd = r.now + w.cfg.Latency + float64(blocks)/w.cfg.Bandwidth
	c.compEnd = c.commEnd + float64(c.updates)/(w.cfg.Speed*w.factor)
	w.cp = c
	return nil
}

// complete reports w's copy finished: its compute timing feeds w's
// profile, then the ack either leaves the tile resident until the
// flush demand or finds the copy revoked — a duplicate won — and the
// work wasted.
func (r *fleetRun) complete(w *fleetWorker) error {
	c := w.cp
	w.cp = nil
	r.spans(w, c, c.compEnd, c.label)
	w.sess.ObserveCompute(c.id, c.updates, int64(secsToDur(c.compEnd-c.commEnd)))
	err := w.sess.Acked(c.id)
	switch {
	case err == nil:
		w.dirty = c
	case errors.Is(err, ErrStaleTask):
		r.res.WastedUpdates += c.updates
		err = nil
	}
	return err
}

// spans traces copy c on w's lane up to end: its transfer, then its
// compute (Spec for a duplicate).
func (r *fleetRun) spans(w *fleetWorker, c *fleetCopy, end float64, label string) {
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
