package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// EngineFeed adapts one worker incarnation of the scheduler to the
// engine's Feed interface — the single bridge both cluster transports
// share (the TCP server session and the in-process local worker): Next
// pulls tasks pinned to the incarnation epoch, Set and Complete bridge
// the task-data API, and Lost declares the incarnation dead, requeuing
// whatever it held. The AssignID is the wire (Job, Seq, Attempt)
// triple; the map back to the live *Task pointers the scheduler expects
// is kept here.
//
// The feed holds each task from Next until Complete or Acked, or until
// Close: while it does, the task's job keeps its operands (see
// Cluster.releaseLocked), because matmul Sets reference them.
type EngineFeed struct {
	cl    *Cluster
	id    string
	epoch uint64

	mu      sync.Mutex
	tasks   map[engine.AssignID]*Task // the tasks held
	closed  bool
	nextErr error // the non-clean error Next ended on, if any
}

// errFeedClosed ends a Next that returned after Close.
var errFeedClosed = errors.New("cluster: engine feed closed")

// NewEngineFeed builds the Feed for one (worker, epoch) incarnation, as
// returned by JoinWorker.
func NewEngineFeed(cl *Cluster, id string, epoch uint64) *EngineFeed {
	return &EngineFeed{cl: cl, id: id, epoch: epoch,
		tasks: make(map[engine.AssignID]*Task)}
}

// TakeNextErr reports the scheduler's verdict when Next ended the
// session uncleanly (declared dead, replaced, …), so callers can
// surface it instead of the transport closure it caused.
func (f *EngineFeed) TakeNextErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextErr
}

func taskAssignID(t *Task) engine.AssignID {
	return engine.AssignID{A: uint32(t.Job), B: uint32(t.Seq), C: uint32(t.Attempt)}
}

// Next pulls this incarnation's next task, blocking until one is
// available; a closed cluster is the clean end of the feed. It returns
// engine.ErrFlushWanted (with a nil assignment) when the scheduler
// wants the worker's resident results flushed before more dispatch.
//
// Tasks whose tiles have representable block IDs go out resident: the
// worker keeps the C tiles in its result cache and flushes each once,
// and all-zero tiles ship as a flag instead of a payload. Tasks beyond
// the ID space (huge jobs or coordinates) fall back to the dense
// ship-and-return protocol, which is always correct.
func (f *EngineFeed) Next() (*engine.Assign, error) {
	task, err := f.cl.NextTaskEpoch(f.id, f.epoch)
	if errors.Is(err, ErrClosed) {
		return nil, engine.ErrFeedDone
	}
	if errors.Is(err, engine.ErrFlushWanted) {
		return nil, engine.ErrFlushWanted
	}
	if err != nil {
		f.mu.Lock()
		f.nextErr = err
		f.mu.Unlock()
		return nil, err
	}
	blocks, q, err := f.cl.TaskChunk(task)
	if err != nil {
		return nil, err
	}
	id := taskAssignID(task)
	f.mu.Lock()
	if f.closed {
		// The session is over and nothing will ever let go of a hold
		// taken now.
		f.mu.Unlock()
		f.cl.pool.PutAll(blocks)
		return nil, errFeedClosed
	}
	f.tasks[id] = task
	f.cl.feedHold(task, +1)
	f.mu.Unlock()
	as := &engine.Assign{
		ID: id,
		I0: task.Chunk.I0, J0: task.Chunk.J0,
		Rows: task.Chunk.Rows, Cols: task.Chunk.Cols, Q: q, Steps: task.Steps,
		Blocks: blocks, Owned: true,
	}
	ch := task.Chunk
	if engine.CBlockID(uint32(task.Job), ch.I0+ch.Rows-1, ch.J0+ch.Cols-1) != 0 {
		as.CJob = uint32(task.Job)
		as.CFlags = make([]byte, 0, len(blocks))
		kept := blocks[:0]
		for _, blk := range blocks {
			if engine.AllZeroBits(blk) {
				as.CFlags = append(as.CFlags, engine.CZero)
				f.cl.pool.Put(blk)
				continue
			}
			as.CFlags = append(as.CFlags, engine.CShip)
			kept = append(kept, blk)
		}
		as.Blocks = kept
	}
	return as, nil
}

// Set materializes the k-th update set of a held assignment, stamped
// with the job-scoped block IDs the delta protocol tracks, in a Set
// from the cluster's pool (its consumer recycles it there). A matmul
// set is unowned: its blocks are the job's own, which the hold keeps
// alive until the task is let go of. For LU tasks (pooled copies,
// owned) the operands are the stage-t.K panels: those blocks are final
// once the stage is factored (later stages only touch the trailing
// submatrix), and the A-role IDs never collide with B-role IDs, so the
// negated L panel caches as safely as a matmul operand.
func (f *EngineFeed) Set(id engine.AssignID, k int) (*engine.Set, error) {
	f.mu.Lock()
	task := f.tasks[id]
	f.mu.Unlock()
	if task == nil {
		return nil, fmt.Errorf("cluster: set for unknown assignment %v", id)
	}
	set := f.cl.pool.GetSet()
	if err := f.cl.TaskSet(task, k, set); err != nil {
		f.cl.pool.PutSet(set)
		if errors.Is(err, ErrStaleJob) {
			return nil, fmt.Errorf("%w: %v", engine.ErrStaleAssign, err)
		}
		return nil, err
	}
	set.K, set.Owned = k, task.Kind == LU
	kk := k
	if task.Kind == LU {
		kk = task.K
	}
	engine.StampIDs(set, uint32(task.Job), task.Chunk, kk)
	return set, nil
}

// Complete retires a held assignment with its result blocks; a task the
// scheduler already reassigned is reported stale, not fatal.
func (f *EngineFeed) Complete(id engine.AssignID, blocks [][]float64) error {
	task := f.take(id)
	if task == nil {
		return engine.ErrStaleResult
	}
	defer f.cl.feedHold(task, -1)
	if err := f.cl.Complete(f.id, task, blocks); err != nil {
		if errors.Is(err, ErrStaleTask) {
			return engine.ErrStaleResult
		}
		return err
	}
	return nil
}

// Acked retires a held assignment whose result tiles stay resident on
// the worker: the task leaves the in-flight set and its tiles turn
// dirty until a flush commits them. A task the scheduler already
// reassigned is reported stale, not fatal.
func (f *EngineFeed) Acked(id engine.AssignID) error {
	task := f.take(id)
	if task == nil {
		return engine.ErrStaleResult
	}
	defer f.cl.feedHold(task, -1)
	if err := f.cl.AckTask(f.id, task); err != nil {
		if errors.Is(err, ErrStaleTask) {
			return engine.ErrStaleResult
		}
		return err
	}
	return nil
}

// ObserveCompute implements engine.TimingSink: per-task worker-side
// compute timings flow into the cluster's speed estimator, pinned to
// this incarnation's epoch so a stale session cannot pollute the live
// profile.
func (f *EngineFeed) ObserveCompute(id engine.AssignID, updates, elapsedNS int64) {
	f.cl.ReportComputeEpoch(f.id, f.epoch, updates, elapsedNS)
}

// CommitFlush applies one flush manifest from the worker; ids the
// scheduler no longer tracks are skipped (the flush may have crossed a
// requeue in flight).
func (f *EngineFeed) CommitFlush(ids []uint64, blocks [][]float64) error {
	return f.cl.CommitFlushEpoch(f.id, f.epoch, ids, blocks)
}

// Lost declares the incarnation dead immediately: this both requeues
// whatever the worker held and wakes any blocked Next call.
func (f *EngineFeed) Lost() {
	f.cl.WorkerLostEpoch(f.id, f.epoch)
}

// take stops holding a task, returning it (nil if not held).
func (f *EngineFeed) take(id engine.AssignID) *Task {
	f.mu.Lock()
	defer f.mu.Unlock()
	task := f.tasks[id]
	delete(f.tasks, id)
	return task
}

// Close ends the session's holds. Call it once nothing can read a Set
// of the session anymore: after RunFeeder has returned (its Sends are
// done) and, on the in-process pipe, after the worker has too.
func (f *EngineFeed) Close() {
	f.mu.Lock()
	f.closed = true
	held := f.tasks
	f.tasks = nil
	f.mu.Unlock()
	for _, task := range held {
		f.cl.feedHold(task, -1)
	}
}
