package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// JobID names one submitted job.
type JobID uint32

// JobKind selects the numerical workload of a job.
type JobKind int

const (
	// MatMul computes C ← C + A·B on the job's blocked operands.
	MatMul JobKind = iota
	// LU factors the job's square blocked matrix in place (packed L\U, no
	// pivoting — same stability contract as internal/lu).
	LU
)

func (k JobKind) String() string {
	switch k {
	case MatMul:
		return "matmul"
	case LU:
		return "lu"
	default:
		return fmt.Sprintf("JobKind(%d)", int(k))
	}
}

// JobState is a job's position in its lifecycle.
type JobState int

const (
	// Queued jobs are admitted but not yet dispatched (MaxRunning gate).
	Queued JobState = iota
	// Running jobs have tasks eligible for dispatch.
	Running
	// Done jobs completed; their result is in the spec's matrices.
	Done
	// Failed jobs gave up (a task exceeded MaxAttempts, or the cluster
	// closed); their matrices are in an unspecified partial state.
	Failed
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// JobSpec describes one job. The cluster references the matrices from
// SubmitJob until it releases the job (see Cluster.releaseLocked): the
// operands once the job is terminal and no worker session still holds
// one of its tasks, the result once nobody can ask for it anymore.
type JobSpec struct {
	Kind JobKind
	// MatMul operands: C is updated in place.
	C, A, B *matrix.Blocked
	// LU operand: factored in place.
	M *matrix.Blocked
	// Mu is the chunk side in blocks (the paper's µ); it bounds the
	// per-worker in-flight state to one µ×µ C chunk, which is what makes
	// recovery cheap. Dispatch only hands a chunk to workers whose
	// advertised memory holds it plus one staging set (µ² + 2µ ≤ m); a
	// chunk no live worker can hold fails the job. Required ≥ 1.
	Mu int
	// Pooled says the matrices' blocks were taken from the cluster's
	// BlockPool (the TCP server decodes submissions straight into them):
	// they are the cluster's from SubmitJob on and go back to the pool
	// when the job is released, or at once when the submission is
	// refused or attaches to an existing job. Matrices submitted without
	// it belong to the caller and are only un-referenced.
	Pooled bool
}

// result is the matrix the job's result lands in: C, or M for LU.
func (s *JobSpec) result() *matrix.Blocked {
	if s.Kind == LU {
		return s.M
	}
	return s.C
}

// recycle forgets the spec's matrices; a pooled spec's blocks go back
// to the pool.
func (s *JobSpec) recycle(pool *engine.BlockPool) {
	for _, m := range []**matrix.Blocked{&s.C, &s.A, &s.B, &s.M} {
		dropMatrix(m, s.Pooled, pool)
	}
}

// dropMatrix forgets *m; pooled blocks go back to the pool.
func dropMatrix(m **matrix.Blocked, pooled bool, pool *engine.BlockPool) {
	if *m != nil && pooled {
		for _, b := range (*m).Blocks {
			pool.Put(b.Data)
		}
	}
	*m = nil
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID         JobID
	Kind       JobKind
	State      JobState
	TasksTotal int // for LU this grows as panel stages unlock
	TasksDone  int
	Requeues   int // tasks re-dispatched after a worker loss
	// Quarantined marks a Failed job that exhausted its retry budget (a
	// poison job) rather than failing for a structural reason.
	Quarantined bool
	Err         error
	// Comm is the job's delta-protocol accounting: operand blocks that
	// went over the wire versus blocks served from worker-resident
	// caches. Sessions report on exit, so in-flight work is not yet
	// counted.
	Comm engine.CommStats
	// Retained counts the matrices (operands and result) the cluster
	// still references for the job; 0 once it is fully released.
	Retained int
}

// Task is one unit of work assigned to exactly one worker: a chunk of the
// job's C grid plus Steps update sets streamed on demand. Workers treat it
// uniformly for both job kinds (LU tasks are 1-step updates whose A
// operands arrive pre-negated).
type Task struct {
	Job     JobID
	Seq     int // unique within the job
	Attempt int // bumped on every requeue and speculative duplicate
	Kind    JobKind
	Chunk   *sim.Chunk
	Steps   int // update sets to stream
	K       int // LU: panel stage this task belongs to

	// started is when the current dispatch handed the task out, read
	// under the cluster mutex by the straggler detector to estimate the
	// holder's remaining time.
	started time.Time
	// notBefore makes a requeued copy ineligible for dispatch until the
	// retry policy's backoff elapses (zero = immediately eligible).
	notBefore time.Time
	// spec marks a speculative duplicate: if this copy completes first,
	// the win is credited to the straggler detector even when the
	// original holder has already been declared lost.
	spec bool
}

// updates is the total block-update work the task represents — the unit
// the speed estimator measures in.
func (t *Task) updates() int64 {
	return int64(t.Steps) * int64(t.Chunk.Rows) * int64(t.Chunk.Cols)
}

// key identifies one task attempt globally: the wire (Job, Seq, Attempt)
// triple a session's assignment carries.
func (t *Task) key() engine.AssignID {
	return engine.AssignID{A: uint32(t.Job), B: uint32(t.Seq), C: uint32(t.Attempt)}
}

// job is the dispatcher's record of one submitted job. Guarded by the
// owning Cluster's mutex.
type job struct {
	id       JobID
	spec     JobSpec
	q        int // block edge; outlives the matrices
	state    JobState
	pending  []*Task // ready to assign (head is next)
	inflight int
	// dirty counts tasks acknowledged by their worker (the values live in
	// its result cache) but not yet flush-committed into the job matrix.
	// The job is not finished — and an LU stage cannot advance — until
	// every dirty task commits.
	dirty    int
	total    int
	done     int
	requeues int
	err      error
	doneCh   chan struct{} // closed on Done or Failed
	nextSeq  int
	// LU stage state
	stage     int // current panel index k
	stageLeft int // trailing tasks outstanding in the current stage
	luBlocks  int // r, the block order of the LU matrix
	// comm accumulates the job's delta-protocol accounting as worker
	// sessions report it.
	comm engine.CommStats

	// Adaptive chunk shaping: cutter holds the uncut remainder of a
	// matmul C grid — chunks are carved per worker at dispatch time
	// instead of pre-cut at one global µ. gridT is the shared update
	// depth (A's block columns). Pre-cut jobs (LU, adaptation off) leave
	// cutter nil.
	cutter *sim.Cutter
	gridT  int
	// recuts counts regions returned to the cutter after a loss; bounded
	// by MaxAttempts per grid block so a flapping fleet cannot recompute
	// forever.
	recuts int
	// attempts tracks the highest Attempt issued per Seq, so requeues and
	// speculative duplicates never reuse a live copy's task key. Only
	// populated for seqs that needed more than attempt 0.
	attempts map[int]int
	// specActive marks seqs with a speculative duplicate in flight; at
	// most one duplicate per seq, cleared when the first copy finishes.
	specActive map[int]bool

	// key is the client-chosen idempotency key (0 = none): resubmitting
	// it attaches to this job instead of double-running the work.
	key uint64
	// quarantined marks a Failed job that exhausted its retry budget — a
	// poison job parked terminally rather than requeued forever.
	quarantined bool
	// doneSeqs records every committed chunk seq; populated on the live
	// commit paths and during replay, it is what makes journal replay
	// idempotent (a chunk record whose seq is here is skipped).
	doneSeqs map[int]bool
	// cutNotBefore gates re-cutting after a loss on an adaptive job (the
	// cutter has no per-task identity to hang an attempt counter on, so
	// the retry backoff applies at job level).
	cutNotBefore time.Time
	// vcache is the lazily built per-job Freivalds state (probe vectors,
	// cached B·r products, operand norms); nil until the verification
	// policy first touches the job, never journaled.
	vcache *verifyCache
	// resultFree marks a job whose result nobody can ask for anymore
	// (ForgetResult): it goes with the operands at release.
	resultFree bool
	// held counts the job's tasks held by worker sessions, dead
	// incarnations included: a session may still be writing a Set that
	// references the job's A/B blocks, so the operands outlive it.
	held int
}

func validateSpec(spec JobSpec) error {
	if spec.Mu < 1 {
		return fmt.Errorf("cluster: µ must be ≥ 1, got %d", spec.Mu)
	}
	switch spec.Kind {
	case MatMul:
		c, a, b := spec.C, spec.A, spec.B
		if c == nil || a == nil || b == nil {
			return fmt.Errorf("cluster: matmul job needs C, A and B")
		}
		if a.BR != c.BR || b.BC != c.BC || a.BC != b.BR || a.Q != b.Q || a.Q != c.Q {
			return fmt.Errorf("cluster: matmul shape mismatch C %dx%d, A %dx%d, B %dx%d",
				c.BR, c.BC, a.BR, a.BC, b.BR, b.BC)
		}
	case LU:
		if spec.M == nil {
			return fmt.Errorf("cluster: lu job needs M")
		}
		if spec.M.BR != spec.M.BC {
			return fmt.Errorf("cluster: lu matrix is %dx%d blocks, want square", spec.M.BR, spec.M.BC)
		}
		if spec.M.BR < 1 {
			return fmt.Errorf("cluster: lu matrix is empty")
		}
	default:
		return fmt.Errorf("cluster: unknown job kind %d", spec.Kind)
	}
	return nil
}

// newJob builds the job record and its initial task pool. With adaptive
// chunk shaping, a matmul job keeps its C grid in a lazy cutter and
// tasks are carved per worker at dispatch time; total then grows as
// chunks are cut, like LU stages. Otherwise the grid is pre-cut at the
// job's µ in the column-panel order of the maximum re-use algorithm
// (Algorithm 1, homog.ChunkGrid).
func newJob(id JobID, spec JobSpec, adaptive bool) *job {
	j := &job{id: id, spec: spec, doneCh: make(chan struct{})}
	switch spec.Kind {
	case MatMul:
		j.q = spec.C.Q
		pr := core.Problem{R: spec.C.BR, S: spec.C.BC, T: spec.A.BC, Q: spec.A.Q}
		if adaptive {
			j.cutter = sim.NewCutter(pr.R, pr.S)
			j.gridT = pr.T
			return j
		}
		_, pool := homog.ChunkGrid(pr, spec.Mu)
		for _, ch := range pool {
			j.pending = append(j.pending, &Task{
				Job: id, Seq: j.nextSeq, Kind: MatMul, Chunk: ch, Steps: pr.T,
			})
			j.nextSeq++
		}
		j.total = len(j.pending)
	case LU:
		j.q = spec.M.Q
		j.luBlocks = spec.M.BR
		// Stage 0 is opened by the caller (factorStage) once the job is
		// admitted; total grows as stages unlock.
	}
	return j
}

// cutTask carves a fresh chunk with side ≤ mu out of the job's cutter
// and wraps it as a dispatchable task; nil when the grid is exhausted.
func (j *job) cutTask(mu int) *Task {
	if j.cutter == nil {
		return nil
	}
	i0, j0, rows, cols, ok := j.cutter.Cut(mu)
	if !ok {
		return nil
	}
	ch := &sim.Chunk{
		ID: j.nextSeq, I0: i0, J0: j0,
		Rows: rows, Cols: cols, Blocks: rows * cols,
		Steps: make([]sim.Step, j.gridT),
	}
	for k := range ch.Steps {
		ch.Steps[k] = sim.Step{Blocks: rows + cols, Updates: int64(rows) * int64(cols)}
	}
	t := &Task{Job: j.id, Seq: j.nextSeq, Kind: MatMul, Chunk: ch, Steps: j.gridT}
	j.nextSeq++
	j.total++
	return t
}

// nextAttempt issues the next unused Attempt number for a seq, so a
// requeued copy and a speculative duplicate can never collide with a
// copy that is still live under the original key.
func (j *job) nextAttempt(seq int) int {
	if j.attempts == nil {
		j.attempts = make(map[int]int)
	}
	a := j.attempts[seq] + 1
	j.attempts[seq] = a
	return a
}

// factorStage factors panel k of an LU job on the master (the paper keeps
// pivot work at the master; §7's right-looking scheme) and opens the
// trailing-update tasks of the stage. It returns false when the
// factorization is complete.
func (j *job) factorStage() bool {
	m := j.spec.M
	q := m.Q
	k := j.stage
	r := j.luBlocks
	if k >= r {
		return false
	}
	factorBlockLU(m.Block(k, k).Data, q)
	for i := k + 1; i < r; i++ {
		solveRightUpper(m.Block(i, k).Data, m.Block(k, k).Data, q)
	}
	for jj := k + 1; jj < r; jj++ {
		solveLeftUnitLower(m.Block(k, jj).Data, m.Block(k, k).Data, q)
	}
	if k == r-1 {
		return false // last diagonal block: nothing trails
	}
	// Chunk the (r-k-1)² trailing grid into µ×µ tiles; each tile is one
	// 1-step task C(i,j) ← C(i,j) − L(i,k)·U(k,j).
	side := j.spec.Mu
	lo := k + 1
	for i0 := lo; i0 < r; i0 += side {
		rows := minInt(side, r-i0)
		for j0 := lo; j0 < r; j0 += side {
			cols := minInt(side, r-j0)
			ch := &sim.Chunk{
				ID: j.nextSeq, I0: i0, J0: j0,
				Rows: rows, Cols: cols, Blocks: rows * cols,
				Steps: []sim.Step{{Blocks: rows + cols, Updates: int64(rows) * int64(cols)}},
			}
			j.pending = append(j.pending, &Task{
				Job: j.id, Seq: j.nextSeq, Kind: LU, Chunk: ch, Steps: 1, K: k,
			})
			j.nextSeq++
			j.total++
			j.stageLeft++
		}
	}
	return true
}

// finished reports whether every task completed (including the flush
// commits of acknowledged-but-dirty tasks) and, for LU, every stage was
// factored.
func (j *job) finished() bool {
	if len(j.pending) > 0 || j.inflight > 0 || j.dirty > 0 {
		return false
	}
	if j.cutter != nil && !j.cutter.Empty() {
		return false
	}
	if j.spec.Kind == LU {
		return j.stage >= j.luBlocks
	}
	return true
}

func (j *job) status() Status {
	st := Status{
		ID: j.id, Kind: j.spec.Kind, State: j.state,
		TasksTotal: j.total, TasksDone: j.done,
		Requeues: j.requeues, Quarantined: j.quarantined, Err: j.err,
		Comm: j.comm,
	}
	for _, m := range []*matrix.Blocked{j.spec.C, j.spec.A, j.spec.B, j.spec.M} {
		if m != nil {
			st.Retained++
		}
	}
	return st
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
