// Package sim is the discrete-event simulator of the full scheduling
// problem under the platform model of §2.2: a one-port master distributing
// C chunks and update sets to workers with bounded staging buffers.
//
// The simulator works at the message granularity of the paper's algorithms.
// A worker processes a sequence of chunks; each chunk is (1) shipped down
// as a block of C, (2) updated by a sequence of steps — each step delivers
// some operand blocks and enables some block updates —, and (3) shipped
// back. The engine enforces:
//
//   - the one-port model: master communications are strictly serialized;
//   - bounded staging: a worker holds at most StageCap undelivered update
//     sets; a transfer to a full worker monopolizes the port until a
//     buffer frees (the timing rule of Algorithm 3 of the paper);
//   - compute order: a worker executes update sets in arrival order,
//     back-to-back.
//
// Scheduling algorithms drive the engine through the Policy interface:
// whenever the port is free the engine enumerates every legal next
// communication as a Candidate and the policy picks one. Static algorithms
// (fixed communication orders such as Algorithm 1) use SequencePolicy;
// demand-driven algorithms inspect the candidates' timing.
//
// Run is the repository's one model of the paper's one-port star. Each
// caller only builds chunks, queues and a policy: the seven §8 algorithms
// (internal/algorithms), the §6.2 execution phase and the demand-driven
// heterogeneous baseline (internal/hetero), and §7.2's LU list schedule
// (internal/lu). Besides Run, the package holds only the Cutter the
// cluster carves its chunks with; fleet-scale runs drive the cluster
// scheduler itself (fleet.Run, package internal/fleet).
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

// OpKind is the type of one master communication.
type OpKind int

const (
	// SendC ships a fresh C chunk to a worker.
	SendC OpKind = iota
	// SendAB ships one update set (operand blocks) for the active chunk.
	SendAB
	// RecvC retrieves a fully computed C chunk.
	RecvC
)

func (k OpKind) String() string {
	switch k {
	case SendC:
		return "sendC"
	case SendAB:
		return "sendAB"
	case RecvC:
		return "recvC"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Step is one inner step of a chunk: Blocks operand blocks are delivered,
// enabling Updates block updates.
type Step struct {
	Blocks  int
	Updates int64
}

// Chunk is a unit of C assigned to one worker. I0/J0/Rows/Cols locate it
// in the block grid of C so that real runtimes can move actual data; the
// simulator itself only uses Blocks and Steps.
type Chunk struct {
	ID     int
	I0, J0 int // top-left block coordinates in C
	Rows   int
	Cols   int
	Blocks int // C blocks shipped down and back (Rows × Cols)
	Steps  []Step
}

// TotalUpdates sums the chunk's update counts.
func (c *Chunk) TotalUpdates() int64 {
	var u int64
	for _, s := range c.Steps {
		u += s.Updates
	}
	return u
}

// WorkerConfig sets the per-worker simulation parameters.
type WorkerConfig struct {
	StageCap int // max undelivered update sets held (1 = no overlap, 2 = double buffering; 0 counts as 1)
}

// Candidate is one legal next communication offered to the policy, with
// its timing already resolved against the one-port link and the worker
// state.
type Candidate struct {
	Worker int
	Kind   OpKind
	Chunk  *Chunk
	Step   int     // step index for SendAB
	Start  float64 // when the transfer would start (port acquisition)
	End    float64 // when the port would free again
	// ComputeIdleAt is when the worker runs out of compute work if it
	// receives nothing else; demand-driven policies key on it.
	ComputeIdleAt float64
	// ReadySince is when the worker became able to accept this
	// operation: the instant it went idle (SendC), the instant a staging
	// buffer freed (SendAB; for a chunk's first StageCap sets, the
	// instant its C chunk arrived), or the instant the chunk finished
	// (RecvC). First-come-first-served demand policies key on it.
	ReadySince float64
}

// Policy chooses the next communication among the legal candidates.
type Policy interface {
	Name() string
	// Pick returns the index of the chosen candidate. Candidates are
	// sorted by (worker, kind, step); the slice is never empty.
	Pick(now float64, cands []Candidate) int
}

// Failure schedules the crash of one worker at simulated time At, for
// the failure-injection mode: the worker accepts no further work and any
// chunk it holds that has not been fully retrieved is lost and requeued
// at the tail of the pool. The master notices a failure the next time its
// port clock reaches At — or mid-transfer, when it picks a communication
// with the failed worker that would complete after At.
type Failure struct {
	Worker int
	At     float64
}

// Input bundles everything a simulation run needs.
type Input struct {
	Platform *platform.Platform
	Configs  []WorkerConfig // per worker; len must equal Platform.P()
	// Queues[w] is the static chunk queue of worker w. For pool-based
	// (demand-driven) assignment leave Queues nil and set Pool.
	Queues [][]*Chunk
	Pool   []*Chunk
	// Source, in pool mode, carves a chunk for an idle worker once the
	// pool is empty. Source(w, false) peeks the chunk worker w would take
	// next (nil: none for w) and is called whenever candidates are
	// listed; Source(w, true) claims and returns it, and is called only
	// when w's SendC is picked. A carved chunk lost to a failure goes to
	// the pool tail like any other.
	Source func(w int, claim bool) *Chunk
	Policy Policy
	Trace  *trace.Trace
	// TwoPort switches the master to the bidirectional one-port model
	// (§2.2's "two-port" flavor): result retrievals get their own port
	// and overlap with sends. The paper argues for (and the default is)
	// the unidirectional model; this switch exists for the ablation
	// benchmark.
	TwoPort bool
	// Failures is the deterministic failure-injection schedule. It
	// requires Pool mode: recovery reassigns lost chunks through the
	// demand-driven pool, which a static queue cannot express.
	Failures []Failure
}

// Result reports the outcome of one simulated execution. With failure
// injection, Blocks and Updates count all traffic and work including what
// a crash later discarded, so comparing against the failure-free run
// prices the recovery overhead.
type Result struct {
	Makespan   float64
	Blocks     int64 // total blocks through the master port
	Updates    int64
	Enrolled   int
	PortBusy   float64 // time the port spent transferring
	WorkerBusy []float64
	Chunks     int
	Failures   int // workers lost to injected failures
	Requeues   int // chunks requeued after a failure
}

// Core converts the result into the repository-wide result type.
func (r Result) Core(algorithm string) core.Result {
	return core.Result{Algorithm: algorithm, Makespan: r.Makespan, Enrolled: r.Enrolled, Blocks: r.Blocks, Updates: r.Updates}
}

type workerState struct {
	cfg       WorkerConfig
	queue     []*Chunk // static queue (nil for pool mode)
	active    *Chunk
	nextStep  int       // next step to deliver for the active chunk
	arrive    []float64 // arrival times of delivered steps (current chunk)
	compEnd   []float64 // compute end times of delivered steps
	busy      float64   // total compute time accumulated
	enrolled  bool
	idleSince float64 // when the worker last became chunk-less
	chunkAt   float64 // when the active chunk's C arrived
}

// chunkDoneAt returns when the active chunk's last update finishes
// (only valid once every step has been delivered).
func (ws *workerState) chunkDoneAt() float64 {
	if len(ws.compEnd) == 0 {
		return 0
	}
	return ws.compEnd[len(ws.compEnd)-1]
}

// bufFreeAt returns when a new update-set delivery may complete: the
// compute end of the set StageCap positions back, or 0 when the staging
// area has room outright.
func (ws *workerState) bufFreeAt() float64 {
	k := len(ws.arrive) // index of the set about to be delivered (0-based)
	if k < ws.cfg.StageCap {
		return 0
	}
	return ws.compEnd[k-ws.cfg.StageCap]
}

// Run simulates the schedule to completion.
func Run(in Input) (Result, error) {
	pl := in.Platform
	if pl == nil {
		return Result{}, fmt.Errorf("sim: nil platform")
	}
	if len(in.Configs) != pl.P() {
		return Result{}, fmt.Errorf("sim: %d worker configs for %d workers", len(in.Configs), pl.P())
	}
	if in.Policy == nil {
		return Result{}, fmt.Errorf("sim: nil policy")
	}
	if in.Queues != nil && (in.Pool != nil || in.Source != nil) {
		return Result{}, fmt.Errorf("sim: set either Queues or Pool/Source, not both")
	}
	if len(in.Failures) > 0 && in.Queues != nil {
		return Result{}, fmt.Errorf("sim: failure injection requires Pool mode")
	}
	for _, f := range in.Failures {
		if f.Worker < 0 || f.Worker >= pl.P() {
			return Result{}, fmt.Errorf("sim: failure references worker %d of %d", f.Worker+1, pl.P())
		}
	}

	ws := make([]*workerState, pl.P())
	for i := range ws {
		ws[i] = &workerState{cfg: in.Configs[i]}
		if ws[i].cfg.StageCap < 1 {
			ws[i].cfg.StageCap = 1
		}
		if in.Queues != nil {
			ws[i].queue = in.Queues[i]
		}
	}
	pool := in.Pool

	var (
		port    float64 // send port (and receive port unless TwoPort)
		rport   float64 // receive port when TwoPort
		res     Result
		pending = 0
	)
	if in.Queues != nil {
		for _, q := range in.Queues {
			pending += len(q)
		}
	} else {
		pending = len(pool)
	}
	res.WorkerBusy = make([]float64, pl.P())
	res.Chunks = pending

	lane := func(w int) string { return fmt.Sprintf("P%d", w+1) }

	fails := append([]Failure(nil), in.Failures...)
	sort.Slice(fails, func(a, b int) bool { return fails[a].At < fails[b].At })
	applied := make([]bool, len(fails))
	dead := make([]bool, pl.P())
	// applyFail kills a worker: it accepts no further communications and
	// its unreturned chunk, if any, goes back to the pool tail.
	applyFail := func(i int) {
		f := fails[i]
		applied[i] = true
		if dead[f.Worker] {
			return
		}
		dead[f.Worker] = true
		res.Failures++
		st := ws[f.Worker]
		if st.active != nil {
			pool = append(pool, st.active)
			st.active = nil
			res.Requeues++
		}
	}
	nextFail := func() int {
		for i := range fails {
			if !applied[i] {
				return i // fails is sorted by At
			}
		}
		return -1
	}

	for {
		// Failures whose time has come take effect before anything else.
		for i := range fails {
			if !applied[i] && fails[i].At <= port {
				applyFail(i)
			}
		}

		// Enumerate candidates.
		var cands []Candidate
		for w, st := range ws {
			if dead[w] {
				continue
			}
			c := pl.Workers[w].C
			idle := st.chunkDoneAt()
			if st.active != nil {
				if st.nextStep < len(st.active.Steps) {
					step := st.active.Steps[st.nextStep]
					dur := float64(step.Blocks) * c
					start := port
					end := math.Max(start+dur, st.bufFreeAt())
					ready := st.chunkAt
					if k := len(st.arrive); k >= st.cfg.StageCap {
						ready = st.compEnd[k-st.cfg.StageCap]
					}
					cands = append(cands, Candidate{
						Worker: w, Kind: SendAB, Chunk: st.active, Step: st.nextStep,
						Start: start, End: end, ComputeIdleAt: idle, ReadySince: ready,
					})
				} else {
					// all steps delivered; chunk returns when computed
					dur := float64(st.active.Blocks) * c
					rp := port
					if in.TwoPort {
						rp = rport
					}
					start := math.Max(rp, st.chunkDoneAt())
					cands = append(cands, Candidate{
						Worker: w, Kind: RecvC, Chunk: st.active,
						Start: start, End: start + dur, ComputeIdleAt: idle,
						ReadySince: st.chunkDoneAt(),
					})
				}
			} else {
				var next *Chunk
				switch {
				case st.queue != nil:
					if len(st.queue) > 0 {
						next = st.queue[0]
					}
				case len(pool) > 0:
					next = pool[0]
				case in.Source != nil:
					next = in.Source(w, false)
				}
				if next != nil {
					dur := float64(next.Blocks) * c
					cands = append(cands, Candidate{
						Worker: w, Kind: SendC, Chunk: next,
						Start: port, End: port + dur, ComputeIdleAt: idle,
						ReadySince: st.idleSince,
					})
				}
			}
		}
		if len(cands) == 0 {
			// With work outstanding and failures still scheduled, the
			// engine idles forward to the next crash (which frees its
			// chunk back into the pool for the survivors).
			if nf := nextFail(); nf >= 0 && pending > 0 {
				if fails[nf].At > port {
					port = fails[nf].At
				}
				applyFail(nf)
				continue
			}
			break
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].Worker != cands[b].Worker {
				return cands[a].Worker < cands[b].Worker
			}
			if cands[a].Kind != cands[b].Kind {
				return cands[a].Kind < cands[b].Kind
			}
			return cands[a].Step < cands[b].Step
		})

		pick := in.Policy.Pick(port, cands)
		if pick < 0 || pick >= len(cands) {
			return Result{}, fmt.Errorf("sim: policy %q picked invalid candidate %d of %d", in.Policy.Name(), pick, len(cands))
		}
		cd := cands[pick]
		// A failure striking the transfer's worker before the transfer
		// completes aborts it mid-flight: the port is released at the
		// crash instant and the worker's chunk is lost.
		aborted := false
		for i := range fails {
			if !applied[i] && fails[i].Worker == cd.Worker && fails[i].At < cd.End {
				if fails[i].At > port {
					port = fails[i].At
				}
				applyFail(i)
				aborted = true
				break // fails is sorted: this is the earliest strike
			}
		}
		if aborted {
			continue
		}
		st := ws[cd.Worker]
		wk := pl.Workers[cd.Worker]

		switch cd.Kind {
		case SendC:
			switch {
			case st.queue != nil:
				st.queue = st.queue[1:]
			case len(pool) > 0:
				if pool[0] != cd.Chunk {
					// another worker claimed it in the same wave; re-resolve
					return Result{}, fmt.Errorf("sim: pool head changed unexpectedly")
				}
				pool = pool[1:]
			default:
				cd.Chunk = in.Source(cd.Worker, true)
				pending++
				res.Chunks++
			}
			st.active = cd.Chunk
			st.nextStep = 0
			st.arrive = st.arrive[:0]
			st.compEnd = st.compEnd[:0]
			st.enrolled = true
			st.chunkAt = cd.End
			res.Blocks += int64(cd.Chunk.Blocks)
			res.PortBusy += cd.End - cd.Start
			in.Trace.Add("M", trace.Comm, cd.Start, cd.End, fmt.Sprintf("C#%d→%s", cd.Chunk.ID, lane(cd.Worker)))
			port = cd.End

		case SendAB:
			step := st.active.Steps[st.nextStep]
			res.Blocks += int64(step.Blocks)
			res.PortBusy += float64(step.Blocks) * wk.C
			in.Trace.Add("M", trace.Comm, cd.Start, cd.End, fmt.Sprintf("AB→%s k=%d", lane(cd.Worker), st.nextStep))
			port = cd.End
			arr := cd.End
			prev := 0.0
			if n := len(st.compEnd); n > 0 {
				prev = st.compEnd[n-1]
			}
			cstart := math.Max(prev, arr)
			cend := cstart + float64(step.Updates)*wk.W
			st.arrive = append(st.arrive, arr)
			st.compEnd = append(st.compEnd, cend)
			st.busy += float64(step.Updates) * wk.W
			res.Updates += step.Updates
			in.Trace.Add(lane(cd.Worker), trace.Compute, cstart, cend, fmt.Sprintf("upd k=%d", st.nextStep))
			st.nextStep++

		case RecvC:
			res.Blocks += int64(st.active.Blocks)
			res.PortBusy += cd.End - cd.Start
			in.Trace.Add("M", trace.Comm, cd.Start, cd.End, fmt.Sprintf("C#%d←%s", st.active.ID, lane(cd.Worker)))
			if in.TwoPort {
				rport = cd.End
			} else {
				port = cd.End
			}
			st.active = nil
			st.idleSince = cd.End
			pending--
		}
	}

	if pending != 0 {
		return Result{}, fmt.Errorf("sim: %d chunks never completed", pending)
	}
	res.Makespan = math.Max(port, rport)
	for w, st := range ws {
		res.WorkerBusy[w] = st.busy
		if st.chunkDoneAt() > res.Makespan {
			res.Makespan = st.chunkDoneAt()
		}
		if st.enrolled {
			res.Enrolled++
		}
	}
	return res, nil
}
