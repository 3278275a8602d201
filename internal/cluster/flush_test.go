package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// TestKillWorkerRequeuesExactly is the recovery oracle for the result
// path, driven through the worker's Session by hand so the crash point
// is deterministic: a worker commits one task's Result, holds two more
// in flight, and dies. Exactly those two tasks — no more, no fewer —
// must be requeued, a Result from the dead incarnation must be refused
// and commit nothing, and a healthy worker must then recompute the
// affected updates to a bit-exact finish, every tile committed once:
// the master's C blocks are only ever written by a commit.
func TestKillWorkerRequeuesExactly(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// 4×4 blocks, µ=2 → four chunks of 2×2 tiles.
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 31)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	doomed := join(t, cl, "doomed", 64, 4)
	t1, t2 := pullTask(t, doomed), pullTask(t, doomed)
	pullTask(t, doomed)
	if err := complete(doomed, t1, honestTask(c, a, b, t1, 4)); err != nil {
		t.Fatal(err)
	}
	for _, w := range cl.Workers() {
		if w.ID == "doomed" && (w.Inflight != 2 || w.FlushedBlocks != 4) {
			t.Fatalf("in flight %d, committed blocks %d; want 2 and 4 (one 2x2 tile)", w.Inflight, w.FlushedBlocks)
		}
	}

	doomed.Lost()
	if st := cl.ClusterStats(); st.Requeues != 2 {
		t.Fatalf("requeues = %d, want exactly 2 (the tasks in flight)", st.Requeues)
	}
	// A Result racing the loss must be refused, not committed: the
	// master copy wins and the requeued recomputation starts from it.
	before := append([]float64(nil), c.Block(t2.I0, t2.J0).Data...)
	junk := [][]float64{make([]float64, 16), make([]float64, 16), make([]float64, 16), make([]float64, 16)}
	if err := complete(doomed, t2, junk); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("result from dead worker = %v, want ErrStaleTask", err)
	}
	if !blas.EqualBits(c.Block(t2.I0, t2.J0).Data, before) {
		t.Fatal("the dead worker's Result was committed")
	}

	go RunLocalWorker(cl, LocalWorkerConfig{ID: "healer", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g (not bit-exact after recovery)",
					i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
	if st := cl.ClusterStats(); st.FlushedBlocks != 16 {
		t.Fatalf("committed blocks = %d, want every one of the 16 tiles once", st.FlushedBlocks)
	}
}

// TestAckCommitFlushLifecycle drives one task through the result
// lifecycle by hand: pulling it leaves the job unfinished, its Result
// commits by copying — not adding — the worker's final value into the
// job matrix and retires the task, and a second Result for it is stale.
func TestAckCommitFlushLifecycle(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// 2×2 blocks, µ=2 → a single chunk of 2×2 tiles.
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 32)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := join(t, cl, "w", 64, 2)
	tk := pullTask(t, w)
	if st, _ := cl.JobStatus(id); st.State != Running {
		t.Fatalf("job state before the result = %v, want still running", st.State)
	}

	ch := tk.Chunk
	var blocks [][]float64
	mark := 0.0
	for i := 0; i < ch.Rows*ch.Cols; i++ {
		blk := make([]float64, 16)
		for n := range blk {
			mark++
			blk[n] = mark
		}
		blocks = append(blocks, blk)
	}
	if err := complete(w, tk, blocks); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state after the result = %v (err %v), want done", st.State, st.Err)
	}
	// Commit is copy semantics: the job matrix holds exactly the
	// returned values, not the returned values added onto the shipped
	// tile.
	n := 0
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			data := c.Block(ch.I0+i, ch.J0+j).Data
			for e := range data {
				n++
				if data[e] != float64(n) {
					t.Fatalf("committed tile (%d,%d)[%d] = %g, want %d (copy, not add)",
						i, j, e, data[e], n)
				}
			}
		}
	}
	if err := complete(w, tk, blocks); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("second result = %v, want ErrStaleTask", err)
	}
	if st := cl.ClusterStats(); st.FlushedBlocks != 4 {
		t.Fatalf("committed blocks = %d, want 4", st.FlushedBlocks)
	}
}

// TestCompleteDeadJobWakesBlockedDispatcher is the regression test for a
// liveness strand: a result arriving for a job that failed meanwhile
// took an early return that freed the worker's slot and memory without
// broadcasting, leaving a dispatcher blocked in Next asleep forever
// even though the freed memory made its next task fit. The result must
// wake it, though the job's tiles are dead.
func TestCompleteDeadJobWakesBlockedDispatcher(t *testing.T) {
	cl, _ := manualCluster(Config{MaxAttempts: 1})
	defer cl.Close()
	// Job 1: 4×4 blocks, µ=2 → chunks with footprint 2·2+2+2 = 8.
	c1, a1, b1, _ := blockedInputs(t, 16, 16, 16, 4, 33)
	j1, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c1, A: a1, B: b1, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Worker w holds one 8-block chunk of job 1; with 10 advertised
	// blocks nothing else fits until that task retires.
	w := join(t, cl, "w", 10, 2)
	t1 := pullTask(t, w)
	if t1.Job != j1 {
		t.Fatalf("first task from job %d, want %d", t1.Job, j1)
	}
	// Worker x holds another job-1 task; its loss will burn the task's
	// only attempt and fail job 1.
	x := join(t, cl, "x", 64, 1)
	pullTask(t, x)
	// Job 2: 2×2 blocks, µ=1 → footprint 1+1+1 = 3; 8+3 exceeds w's 10
	// blocks, so w's second pull blocks on memory.
	c2, a2, b2, _ := blockedInputs(t, 8, 8, 8, 4, 34)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c2, A: a2, B: b2, Mu: 1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan *Task, 1)
	go func() {
		tk, err := next(w)
		if err == nil {
			got <- tk
		}
		close(got)
	}()
	waitParked(t, cl, 1)
	select {
	case tk := <-got:
		t.Fatalf("second pull returned %v past the memory budget", tk)
	default:
	}

	x.Lost() // burns job 1's only attempt
	if st, _ := cl.JobStatus(j1); st.State != Failed {
		t.Fatalf("job 1 state = %v, want failed", st.State)
	}
	// Let the dispatcher absorb the loss broadcast, rescan (job 1 is
	// dead, job 2 still does not fit) and park again, so the result
	// below is provably the only thing left to wake it.
	waitParked(t, cl, 2)
	// w now reports its job-1 task. The job is dead, so its tiles will
	// never commit — but the result frees 8 blocks, and the blocked pull
	// must wake and take the job-2 task.
	dead := [][]float64{make([]float64, 16), make([]float64, 16), make([]float64, 16), make([]float64, 16)}
	if err := complete(w, t1, dead); err != nil {
		t.Fatalf("result for dead job = %v, want accepted and discarded", err)
	}
	select {
	case tk, ok := <-got:
		if !ok {
			t.Fatal("blocked pull ended with an error instead of a task")
		}
		if tk.Job == j1 {
			t.Fatalf("woken pull got a task of failed job %d", j1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher still blocked after the dead-job result freed its memory")
	}
}

// TestEngineFeedLostUnblocksNext is the regression test for the feed
// half of the same strand: a session reader declaring the worker lost
// must unblock a feeder goroutine parked in Session.Next, or the
// session never tears down.
func TestEngineFeedLostUnblocksNext(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	feed := join(t, cl, "w", 64, 1)
	ret := make(chan error, 1)
	go func() {
		// No jobs are queued, so Next parks on the condition variable.
		_, err := feed.Next()
		ret <- err
	}()
	waitParked(t, cl, 1)
	select {
	case err := <-ret:
		t.Fatalf("Next returned %v before the loss", err)
	default:
	}
	feed.Lost()
	select {
	case err := <-ret:
		if !errors.Is(err, ErrUnknownWorker) {
			t.Fatalf("Next after loss = %v, want ErrUnknownWorker", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after the incarnation was declared lost")
	}
	if err := feed.Close(SessionReport{}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Close = %v, want the recorded ErrUnknownWorker", err)
	}
}

// TestMalformedFlushCommitsNothing is the regression test for a
// half-committed tile: a Result whose second block is short must be
// refused before its first, well-formed block lands. Committed, that tile
// would already hold its final value when the refused task is requeued,
// and the recompute — which starts from the master tile — would apply
// the task's updates to it twice.
func TestMalformedFlushCommitsNothing(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// 2×2 blocks, µ=2 → a single chunk of 2×2 tiles.
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 35)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), c.Block(0, 0).Data...)
	w := join(t, cl, "w", 64, 1)
	tk := pullTask(t, w)
	good := matrix.Partition(ref, 4).Block(0, 0).Data
	if err := complete(w, tk, [][]float64{good, make([]float64, 15), good, good}); err == nil {
		t.Fatal("a result with a short block was accepted")
	}
	if !blas.EqualBits(c.Block(0, 0).Data, before) {
		t.Fatal("the refused result committed its well-formed block")
	}
	// The transport ends the session on the error; the task is requeued
	// and a second worker recomputes it from the untouched master tiles.
	w.Lost()
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if !c.Assemble().Equal(ref, 0) {
		t.Fatal("product after the refused result not bit-exact")
	}
}
