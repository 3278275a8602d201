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
// (internal/lu). It models no failures: worker loss, requeue and
// fleet-scale runs drive the cluster scheduler itself (fleet.Run,
// package internal/fleet).
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
// in the block grid of C for the algorithms that plan it; the simulator
// itself only uses Blocks and Steps.
type Chunk struct {
	ID     int
	I0, J0 int // top-left block coordinates in C
	Rows   int
	Cols   int
	Blocks int // C blocks shipped down and back (Rows × Cols)
	Steps  []Step
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

// Input bundles everything a simulation run needs.
type Input struct {
	Platform *platform.Platform
	Configs  []WorkerConfig // per worker; len must equal Platform.P()
	// At most one of Queues, Pool and Source supplies the chunks.
	// Queues[w] is the static chunk queue of worker w. Pool is one queue
	// every idle worker draws from (demand-driven assignment). Source
	// carves a chunk for an idle worker: Source(w, false) peeks the chunk
	// worker w would take next (nil: none for w) and is called whenever
	// candidates are listed; Source(w, true) claims and returns it, and
	// is called only when w's SendC is picked.
	Queues [][]*Chunk
	Pool   []*Chunk
	Source func(w int, claim bool) *Chunk
	Policy Policy
	Trace  *trace.Trace
	// TwoPort switches the master to the bidirectional one-port model
	// (§2.2's "two-port" flavor): result retrievals get their own port
	// and overlap with sends. The paper argues for (and the default is)
	// the unidirectional model; this switch exists for the ablation
	// benchmark.
	TwoPort bool
}

// Result reports the outcome of one simulated execution.
type Result struct {
	Makespan   float64
	Blocks     int64 // total blocks through the master port
	Updates    int64
	Enrolled   int
	PortBusy   float64 // time the port spent transferring
	WorkerBusy []float64
	Chunks     int
}

// Core converts the result into the repository-wide result type.
func (r Result) Core(algorithm string) core.Result {
	return core.Result{Algorithm: algorithm, Makespan: r.Makespan, Enrolled: r.Enrolled, Blocks: r.Blocks, Updates: r.Updates}
}

type workerState struct {
	cfg       WorkerConfig
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
	source, err := in.source()
	if err != nil {
		return Result{}, err
	}

	ws := make([]*workerState, pl.P())
	for i := range ws {
		ws[i] = &workerState{cfg: in.Configs[i]}
		if ws[i].cfg.StageCap < 1 {
			ws[i].cfg.StageCap = 1
		}
	}

	var (
		port  float64 // send port (and receive port unless TwoPort)
		rport float64 // receive port when TwoPort
		res   Result
	)
	res.WorkerBusy = make([]float64, pl.P())

	lane := func(w int) string { return fmt.Sprintf("P%d", w+1) }

	for {
		// Enumerate candidates.
		var cands []Candidate
		for w, st := range ws {
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
			} else if next := source(w, false); next != nil {
				dur := float64(next.Blocks) * c
				cands = append(cands, Candidate{
					Worker: w, Kind: SendC, Chunk: next,
					Start: port, End: port + dur, ComputeIdleAt: idle,
					ReadySince: st.idleSince,
				})
			}
		}
		// A worker holding a chunk always has a candidate, so an empty
		// list means every claimed chunk came back.
		if len(cands) == 0 {
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
		st := ws[cd.Worker]
		wk := pl.Workers[cd.Worker]

		switch cd.Kind {
		case SendC:
			st.active = source(cd.Worker, true)
			st.nextStep = 0
			st.arrive = st.arrive[:0]
			st.compEnd = st.compEnd[:0]
			st.enrolled = true
			st.chunkAt = cd.End
			res.Chunks++
			res.Blocks += int64(st.active.Blocks)
			res.PortBusy += cd.End - cd.Start
			in.Trace.Add("M", trace.Comm, cd.Start, cd.End, fmt.Sprintf("C#%d→%s", st.active.ID, lane(cd.Worker)))
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
		}
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

// source returns the input's chunk supply as one Source: a static
// queue, or the shared pool, hands out its head.
func (in Input) source() (func(w int, claim bool) *Chunk, error) {
	if in.Source != nil && (in.Queues != nil || in.Pool != nil) || in.Queues != nil && in.Pool != nil {
		return nil, fmt.Errorf("sim: set one of Queues, Pool and Source, not several")
	}
	switch {
	case in.Source != nil:
		return in.Source, nil
	case in.Queues != nil:
		queues := append([][]*Chunk(nil), in.Queues...)
		return func(w int, claim bool) *Chunk { return head(&queues[w], claim) }, nil
	default:
		pool := in.Pool
		return func(_ int, claim bool) *Chunk { return head(&pool, claim) }, nil
	}
}

// head returns the first chunk of *q (nil when it is empty) and, on
// claim, removes it.
func head(q *[]*Chunk, claim bool) *Chunk {
	if len(*q) == 0 {
		return nil
	}
	ch := (*q)[0]
	if claim {
		*q = (*q)[1:]
	}
	return ch
}
