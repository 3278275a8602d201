package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// TestKillWorkerWithDirtyCRequeuesExactly is the recovery oracle for the
// single-flush result path, driven through the worker's Session by
// hand so the crash point is deterministic: a worker acks two tasks
// (their C tiles dirty: it dies before their FlushResults land), holds
// a third in flight, and dies. Exactly those three tasks — no more, no fewer —
// must be requeued, a flush from the dead incarnation must be refused,
// and a healthy worker must then recompute the affected updates to a
// bit-exact finish, since the master's C blocks were never touched by
// an uncommitted ack.
func TestKillWorkerWithDirtyCRequeuesExactly(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// 4×4 blocks, µ=2 → four chunks of 2×2 tiles.
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 31)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Slots 4 and memory 64: the worker can turn two tasks dirty and
	// still pull a third.
	doomed := join(t, cl, "doomed", 64, 4)
	t1 := pullTask(t, doomed)
	t2 := pullTask(t, doomed)
	if err := doomed.Acked(t1.key()); err != nil {
		t.Fatal(err)
	}
	if err := doomed.Acked(t2.key()); err != nil {
		t.Fatal(err)
	}
	pullTask(t, doomed)
	for _, w := range cl.Workers() {
		if w.ID != "doomed" {
			continue
		}
		if w.DirtyBlocks != 8 {
			t.Fatalf("dirty blocks = %d, want 8 (two acked 2x2-tile chunks)", w.DirtyBlocks)
		}
		if w.Inflight != 1 {
			t.Fatalf("inflight = %d, want 1", w.Inflight)
		}
	}
	if st := cl.ClusterStats(); st.DirtyBlocks != 8 {
		t.Fatalf("fleet dirty blocks = %d, want 8", st.DirtyBlocks)
	}

	doomed.Lost()
	if st := cl.ClusterStats(); st.Requeues != 3 {
		t.Fatalf("requeues = %d, want exactly 3 (two dirty + one in flight)", st.Requeues)
	}
	// A flush racing the loss must be refused, not committed: the master
	// copy wins and the requeued recomputation starts from it.
	bid := engine.CBlockID(uint32(t1.Job), t1.Chunk.I0, t1.Chunk.J0)
	stale := [][]float64{make([]float64, 16)}
	if err := doomed.CommitFlush([]uint64{bid}, stale); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("flush from dead worker = %v, want ErrUnknownWorker", err)
	}

	go RunLocalWorker(cl, LocalWorkerConfig{ID: "healer", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g (not bit-exact after dirty-C recovery)",
					i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
	st := cl.ClusterStats()
	if st.FlushedBlocks == 0 {
		t.Fatal("healer committed no flushed blocks; the resident path did not run")
	}
	if st.DirtyBlocks != 0 {
		t.Fatalf("fleet dirty blocks = %d after completion, want 0", st.DirtyBlocks)
	}
}

// TestAckCommitFlushLifecycle drives one task through the result
// lifecycle by hand: ack leaves the job unfinished (the tile is dirty,
// not done), the flush commit copies — not adds — the worker's final
// value into the job matrix, and only the commit retires the task.
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
	if err := w.Acked(tk.key()); err != nil {
		t.Fatal(err)
	}
	// A second ack of the same task is stale, and the job must not have
	// finished on the ack alone.
	if err := w.Acked(tk.key()); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("double ack = %v, want ErrStaleTask", err)
	}
	if st, _ := cl.JobStatus(id); st.State != Running {
		t.Fatalf("job state after ack = %v, want still running", st.State)
	}

	ch := tk.Chunk
	var ids []uint64
	var blocks [][]float64
	mark := 0.0
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			ids = append(ids, engine.CBlockID(uint32(tk.Job), ch.I0+i, ch.J0+j))
			blk := make([]float64, 16)
			for n := range blk {
				mark++
				blk[n] = mark
			}
			blocks = append(blocks, blk)
		}
	}
	if err := w.CommitFlush(ids, blocks); err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state after flush = %v (err %v), want done", st.State, st.Err)
	}
	// Commit is copy semantics: the job matrix holds exactly the flushed
	// values, not the flushed values added onto the shipped tile.
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
	// An id from a finished job is skipped silently — a flush may cross a
	// job completion in flight.
	if err := w.CommitFlush(ids[:1], blocks[:1]); err != nil {
		t.Fatalf("post-completion flush = %v, want skipped silently", err)
	}
	if st := cl.ClusterStats(); st.FlushedBlocks != 4 || st.DirtyBlocks != 0 {
		t.Fatalf("flushed/dirty = %d/%d, want 4/0", st.FlushedBlocks, st.DirtyBlocks)
	}
}

// TestCompleteDeadJobWakesBlockedDispatcher is the regression test for a
// liveness strand: an ack arriving for a job that failed meanwhile took
// an early return that freed the worker's slot and memory without
// broadcasting, leaving a dispatcher blocked in Next asleep forever
// even though the freed memory made its next task fit. The ack alone
// must wake it: no flush follows, since the job's tiles are dead.
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
	// dead, job 2 still does not fit) and park again, so the ack below
	// is provably the only thing left to wake it.
	waitParked(t, cl, 2)
	// w now acks its job-1 task. The job is dead, so its tiles will never
	// commit — but the ack frees 8 blocks, and the blocked pull must wake
	// and take the job-2 task.
	if err := w.Acked(t1.key()); err != nil {
		t.Fatalf("ack for dead job = %v, want accepted and discarded", err)
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
		t.Fatal("dispatcher still blocked after the dead-job ack freed its memory")
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
// half-committed flush: a manifest whose second tile is short must be
// refused before its first, well-formed tile lands. Committed, that tile
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
	if err := w.Acked(tk.key()); err != nil {
		t.Fatal(err)
	}
	good := matrix.Partition(ref, 4).Block(0, 0).Data
	ids := []uint64{engine.CBlockID(uint32(tk.Job), 0, 0), engine.CBlockID(uint32(tk.Job), 0, 1)}
	if err := w.CommitFlush(ids, [][]float64{good, make([]float64, 15)}); err == nil {
		t.Fatal("a flush with a short tile was accepted")
	}
	if !blas.EqualBits(c.Block(0, 0).Data, before) {
		t.Fatal("the refused flush committed its well-formed tile")
	}
	// The transport ends the session on the error; the task is requeued
	// and a second worker recomputes it from the untouched master tiles.
	w.Lost()
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if !c.Assemble().Equal(ref, 0) {
		t.Fatal("product after the refused flush not bit-exact")
	}
}
