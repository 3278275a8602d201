package cluster

import (
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/matrix"
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

// JobState is a job's position in its lifecycle. Its values are the
// state bytes of the journal's snapshot and done records.
type JobState int

const (
	// Running jobs have tasks eligible for dispatch: every admitted job
	// runs.
	Running JobState = iota + 1
	// Done jobs completed; their result is in the spec's matrices.
	Done
	// Failed jobs gave up (a task exceeded MaxAttempts, or the cluster
	// closed); their matrices are in an unspecified partial state.
	Failed
)

func (s JobState) String() string {
	switch s {
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
	// recovery cheap. Each chunk is cut at dispatch, at the largest side
	// up to Mu that the asking worker's advertised memory holds with one
	// staging set (µ² + 2µ ≤ m); with adaptation enabled, a profiled
	// worker's side comes from its speed instead (ChunkSide). A job no
	// live worker can hold a 1×1 chunk of fails. Required ≥ 1.
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
	ID    JobID
	Kind  JobKind
	State JobState
	// TasksTotal counts the chunks cut so far, for every job: tasks are
	// carved at dispatch, so it grows until the grid is cut (one handed
	// back for re-cutting drops out), and done/total is not a progress
	// fraction before then.
	TasksTotal int
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

// Chunk is a region of a job's C grid — for LU, of a stage's trailing
// grid: Rows×Cols blocks from block (I0, J0).
type Chunk struct {
	I0, J0, Rows, Cols int
}

// Task is one unit of work assigned to exactly one worker: a chunk of the
// job's C grid plus Steps update sets streamed on demand. Workers treat it
// uniformly for both job kinds (LU tasks are 1-step updates whose A
// operands arrive pre-negated).
type Task struct {
	Job     JobID
	Seq     int // unique within the job
	Attempt int // bumped on every requeue and speculative duplicate
	Chunk
	Steps int // update sets to stream
	K     int // first step of the task's update sets: the LU panel stage, 0 for a product

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
	return int64(t.Steps) * int64(t.Rows) * int64(t.Cols)
}

// tiles yields the job-scoped ID (engine.CBlockID) of each of the task's
// C tiles, row-major.
func (t *Task) tiles(yield func(uint64) bool) {
	for i := t.I0; i < t.I0+t.Rows; i++ {
		for jj := t.J0; jj < t.J0+t.Cols; jj++ {
			if !yield(engine.CBlockID(uint32(t.Job), i, jj)) {
				return
			}
		}
	}
}

// key identifies one task attempt globally: the wire (Job, Seq, Attempt)
// triple a session's assignment carries.
func (t *Task) key() engine.AssignID {
	return engine.AssignID{A: uint32(t.Job), B: uint32(t.Seq), C: uint32(t.Attempt)}
}

// job is the dispatcher's record of one submitted job. Guarded by the
// owning Cluster's mutex.
type job struct {
	id    JobID
	spec  JobSpec
	q     int // block edge; outlives the matrices
	state JobState
	// cutter holds the part of the job's C grid — for LU, of the current
	// stage's trailing grid — not yet cut into tasks: every fresh task is
	// carved from it at dispatch, sized and placed for the asking worker.
	// With the tasks cut from it and not yet committed (pending, in
	// flight, dirty) it is all of the job's uncommitted work, and it is
	// what the journal persists of it (freeListLocked).
	cutter *cutter
	// pending holds lost copies awaiting redispatch (head is next).
	pending  []*Task
	inflight int
	// dirty counts tasks acknowledged by their worker (the values follow
	// the acknowledgement) but not yet flush-committed into the job matrix.
	// The job is not finished — and an LU stage cannot advance — until
	// every dirty task commits.
	dirty int
	// total counts the chunks cut so far, handed-back ones excepted;
	// done the chunks committed. A snapshot's load restarts total at
	// done: everything cut but uncommitted went back to the cutter.
	total    int
	done     int
	requeues int
	err      error
	doneCh   chan struct{} // closed on Done or Failed
	// nextSeq is the next task's seq, unique within the job across
	// restarts: replay keeps it past every committed seq.
	nextSeq int
	// LU: stage is the panel whose trailing updates are being cut, the
	// block order of the matrix once all are factored.
	stage int
	// LU: panels maps a stage to its negated L panel −M(i,k), i > k, the
	// A operand of the stage's update sets (opA). Each is built from
	// pooled blocks on first use and goes back to the pool at a later
	// openStage or at release, whichever first finds held == 0.
	panels map[int][][]float64
	// comm accumulates the job's delta-protocol accounting as worker
	// sessions report it.
	comm engine.CommStats

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
	// vcache is the lazily built per-job Freivalds state (probe vectors,
	// cached B·r products, operand norms); nil until the verification
	// policy first touches the job, never journaled.
	vcache *verifyCache
	// resultFree marks a job whose result nobody can ask for anymore
	// (ForgetResult): it goes with the operands at release.
	resultFree bool
	// held counts the job's tasks held by worker sessions, dead
	// incarnations included: a session may still be writing a Set that
	// references the job's operand blocks (opA, opB), so they outlive it.
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

// newJob builds the Running job record. A product's cutter covers its
// whole C grid; an LU job's stays empty until startLocked factors panel 0
// and opens the stage's trailing grid (openStage).
func newJob(id JobID, spec JobSpec) *job {
	res := spec.result()
	j := &job{id: id, spec: spec, q: res.Q, state: Running, doneCh: make(chan struct{})}
	if spec.Kind == LU {
		j.cutter = newCutterFromRects(res.BR, res.BC, nil)
	} else {
		j.cutter = newCutter(res.BR, res.BC)
	}
	return j
}

// steps is the update depth of the job's tasks: A's block columns for a
// product, one trailing update for LU.
func (j *job) steps() int {
	if j.spec.Kind == LU {
		return 1
	}
	return j.spec.A.BC
}

// cutTask claims a chunk from the job's cutter — for LU, from the
// current stage's trailing grid — and wraps it as a fresh task.
func (j *job) cutTask(i0, j0, rows, cols int) *Task {
	j.cutter.Claim(i0, j0, rows, cols)
	t := &Task{Job: j.id, Seq: j.nextSeq, Chunk: Chunk{i0, j0, rows, cols}, Steps: j.steps(), K: j.stage}
	j.nextSeq++
	j.total++
	return t
}

// handBack returns a pending copy's region to the cutter, to be re-cut
// at a side some worker holds.
func (j *job) handBack(t *Task) error {
	if err := j.cutter.Free(t.I0, t.J0, t.Rows, t.Cols); err != nil {
		return err
	}
	j.total--
	return nil
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

// opA is the A operand block (i, k) of the job's update sets, k the
// absolute step (Task.K plus the set's index): A's own block for a
// product; for LU, block (i, k) of stage k's negated L panel, so the
// worker's generic C += A·B update computes the trailing subtraction.
// The panel is built from pool on first use, once per stage.
func (j *job) opA(i, k int, pool *engine.BlockPool) []float64 {
	if j.spec.Kind != LU {
		return j.spec.A.Block(i, k).Data
	}
	p := j.panels[k]
	if p == nil {
		m := j.spec.M
		p = make([][]float64, m.BR-k-1)
		for n := range p {
			src := m.Block(k+1+n, k).Data
			p[n] = pool.Get(len(src))
			for e, v := range src {
				p[n][e] = -v
			}
		}
		if j.panels == nil {
			j.panels = make(map[int][][]float64)
		}
		j.panels[k] = p
	}
	return p[i-k-1]
}

// opB is the B operand block (k, jj) of the job's update sets: B's own
// block for a product, M's U row block for LU. Both are final while a
// task of step k exists: a stage's panels are never written again once
// it opens.
func (j *job) opB(k, jj int) []float64 {
	if j.spec.Kind != LU {
		return j.spec.B.Block(k, jj).Data
	}
	return j.spec.M.Block(k, jj).Data
}

// dropPanels returns every negated LU panel to the pool. Only call it
// while no session holds a task of the job: a held task's Set may
// still reference its panel.
func (j *job) dropPanels(pool *engine.BlockPool) {
	for _, p := range j.panels {
		for _, b := range p {
			pool.Put(b)
		}
	}
	j.panels = nil
}

// openStage factors panel k = j.stage of an LU job on the master (the
// paper keeps pivot work at the master; §7's right-looking scheme) with
// the kernels lu.Factor runs, and opens a cutter over the stage's
// trailing grid, whose chunks are the 1-step tasks C(i,j) ← C(i,j) −
// L(i,k)·U(k,j). The last panel trails nothing, which completes the
// factorization. A zero pivot is an error naming its column as
// lu.Factor does. The earlier stages' panels go back to the pool unless
// a session still holds a task.
func (j *job) openStage(pool *engine.BlockPool) error {
	m := j.spec.M
	q := m.Q
	k := j.stage
	r := m.BR
	if j.held == 0 {
		j.dropPanels(pool)
	}
	piv := m.Block(k, k).Data
	if bad := blas.Getf2(piv, q, q); bad >= 0 {
		return fmt.Errorf("cluster: zero pivot at column %d", k*q+bad)
	}
	for i := k + 1; i < r; i++ {
		blas.TrsmUpperRight(q, q, piv, q, m.Block(i, k).Data, q)
	}
	for jj := k + 1; jj < r; jj++ {
		blas.TrsmLowerLeft(q, q, piv, q, m.Block(k, jj).Data, q)
	}
	if k == r-1 {
		j.stage = r
		return nil
	}
	j.cutter = newCutterFromRects(r, r, [][4]int{{k + 1, k + 1, r - k - 1, r - k - 1}})
	return nil
}

// drained reports that nothing of the job — for LU, of its current stage
// — is left to cut, dispatch or compute: only flush commits of dirty
// tasks can still be outstanding.
func (j *job) drained() bool {
	return j.cutter.Empty() && len(j.pending) == 0 && j.inflight == 0
}

// finished reports whether every task committed and, for LU, every
// stage was factored.
func (j *job) finished() bool {
	return j.drained() && j.dirty == 0 && (j.spec.Kind != LU || j.stage >= j.spec.M.BR)
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
