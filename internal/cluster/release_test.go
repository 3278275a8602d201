package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// retained reads a job's Status.Retained.
func retained(t *testing.T, cl *Cluster, id JobID) int {
	t.Helper()
	st, err := cl.JobStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	return st.Retained
}

// completeAll drains the job's tasks through session s with the
// reference values, returning the last task served (for poking at the
// set guard afterwards).
func completeAll(t *testing.T, s *Session, id JobID, ref *matrix.Blocked) *Task {
	t.Helper()
	var last *Task
	for {
		st, err := s.cl.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == Done {
			return last
		}
		last = pullTask(t, s)
		if err := complete(s, last, refChunk(last, ref)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFinishedJobReleasesOperandsKeepsResult: the in-process contract
// (SubmitJob → Wait → JobResult, what the bench's traced pass runs).
// Operands and the verify cache go when the job finishes; the result
// stays until ForgetResult says nobody will ask; the caller's matrices
// are only un-referenced, never written or recycled; and a set request
// meets a released job with the typed stale error.
func TestFinishedJobReleasesOperandsKeepsResult(t *testing.T) {
	cl, _ := manualCluster(Config{Verify: VerifyPolicy{Mode: VerifyAll}})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 51)
	aCopy := a.Clone()
	refB := matrix.Partition(ref, 4)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := retained(t, cl, id); got != 3 {
		t.Fatalf("running job retains %d matrices, want 3", got)
	}
	last := completeAll(t, join(t, cl, "w1", 0, 1), id, refB)
	if got := retained(t, cl, id); got != 1 {
		t.Fatalf("finished job retains %d matrices, want 1 (the result)", got)
	}
	cl.mu.Lock()
	vc := cl.jobs[id].vcache
	cl.mu.Unlock()
	if vc != nil {
		t.Fatal("verify projection cache outlived the job")
	}
	res, err := cl.JobResult(id)
	if err != nil {
		t.Fatalf("JobResult after release of the operands: %v", err)
	}
	if d := res.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result differs by %g", d)
	}
	if !a.Equal(aCopy, 0) {
		t.Fatal("caller-owned operand was modified by the release")
	}
	// A session's hold keeps the operands of every task it holds, so no
	// session asks for these; a set on them is an error, which would end
	// the session.
	if err := setOf(cl, last, 0); err == nil {
		t.Fatal("set on released operands succeeded, want an error")
	}

	cl.ForgetResult(id)
	if got := retained(t, cl, id); got != 0 {
		t.Fatalf("forgotten job retains %d matrices, want 0", got)
	}
	if _, err := cl.JobResult(id); err == nil {
		t.Fatal("JobResult served a released result")
	}
	// The light record is lifetime-accurate.
	if st := cl.Jobs(); len(st) != 1 || st[0].State != Done || st[0].TasksDone != 4 {
		t.Fatalf("job table after release = %+v", st)
	}
	if st := cl.ClusterStats(); st.JobsDone != 1 {
		t.Fatalf("jobs done = %d, want 1", st.JobsDone)
	}
}

// TestKeyedJobKeepsResultForReattach: ForgetResult is for unkeyed jobs;
// a keyed job's result survives it, and a resubmission attaches.
func TestKeyedJobKeepsResultForReattach(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 53)
	id, _, err := cl.SubmitJobKeyed(7, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	completeAll(t, join(t, cl, "w1", 0, 1), id, matrix.Partition(ref, 4))
	cl.ForgetResult(id)
	if got := retained(t, cl, id); got != 1 {
		t.Fatalf("keyed job retains %d matrices after ForgetResult, want 1", got)
	}
	// A pooled resubmission of the key attaches; its freshly decoded
	// operands have no owner and go back to the pool.
	dup := JobSpec{Kind: MatMul, Mu: 2, Pooled: true,
		C: pooledCopy(cl, c), A: pooledCopy(cl, a), B: pooledCopy(cl, b)}
	rid, attached, err := cl.SubmitJobKeyed(7, dup)
	if err != nil || !attached || rid != id {
		t.Fatalf("keyed resubmit = %d, %v, %v", rid, attached, err)
	}
	res, err := cl.JobResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("re-attached result differs by %g", d)
	}
}

// pooledCopy clones m into blocks taken from the cluster's pool, the
// way the TCP server decodes a submission.
func pooledCopy(cl *Cluster, m *matrix.Blocked) *matrix.Blocked {
	out := &matrix.Blocked{BR: m.BR, BC: m.BC, Q: m.Q}
	for _, b := range m.Blocks {
		out.Blocks = append(out.Blocks, &matrix.Block{I: b.I, J: b.J, Q: b.Q, Data: cl.pool.GetCopy(b.Data)})
	}
	return out
}

// TestRecoveredJobsPooled: a replay decodes every matrix of a matmul
// and an LU job straight into blocks of the cluster's pool and marks
// the job Pooled — replayed from events, with a chunk committed, or
// loaded from a snapshot — so a recovered job is released as a
// submitted one is. Run to the end and forgotten, both jobs give every
// block back: under the poolcheck tag each reads as the poison a
// released block is overwritten with, and a block released twice
// panics.
func TestRecoveredJobsPooled(t *testing.T) {
	const q = 8
	for _, fromSnapshot := range []bool{false, true} {
		dir := t.TempDir()
		c, a, b, ref := blockedInputs(t, 4*q, 4*q, 4*q, q, 71)
		refB := matrix.Partition(ref, q)
		orig := matrix.NewDense(4*q, 4*q)
		lu.DiagonallyDominant(orig, 72)
		jnA, logA := openLog(t, dir)
		clA, _ := manualCluster(Config{Log: logA})
		mmID, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
		if err != nil {
			t.Fatal(err)
		}
		luID, err := clA.SubmitJob(JobSpec{Kind: LU, M: matrix.Partition(orig.Clone(), q), Mu: 1})
		if err != nil {
			t.Fatal(err)
		}
		// serveOne completes the next task of w with honest tiles, and
		// releases the C blocks it was sent as a worker does; m is the LU
		// job's matrix.
		serveOne := func(w *Session, m *matrix.Blocked) {
			as, err := w.Next()
			if err != nil {
				t.Fatal(err)
			}
			defer w.cl.pool.PutAll(as.Blocks)
			w.cl.mu.Lock()
			tk := w.held[as.ID]
			w.cl.mu.Unlock()
			vals := refChunk(tk, refB)
			if tk.Job == luID {
				if _, err := w.Set(tk.key(), 0); err != nil {
					t.Fatal(err)
				}
				vals = honestLUTask(m, tk)
			}
			if err := complete(w, tk, vals); err != nil {
				t.Fatal(err)
			}
		}
		w := join(t, clA, "w", 0, 1)
		m := jobLocked(clA, luID, func(j *job) *matrix.Blocked { return j.spec.M })
		serveOne(w, m)
		serveOne(w, m)
		if fromSnapshot {
			if err := clA.CompactLog(); err != nil {
				t.Fatal(err)
			}
		}
		jnA.Close() // crash

		jnB, logB := openLog(t, dir)
		clB, _ := manualCluster(Config{Log: logB})
		if _, err := clB.Recover(); err != nil {
			t.Fatal(err)
		}
		var blocks [][]float64
		for _, id := range []JobID{mmID, luID} {
			jobLocked(clB, id, func(j *job) bool {
				if !j.spec.Pooled {
					t.Fatalf("snapshot %v: recovered job %d is not pooled", fromSnapshot, id)
				}
				for _, m := range []*matrix.Blocked{j.spec.C, j.spec.A, j.spec.B, j.spec.M} {
					if m != nil {
						for _, blk := range m.Blocks {
							blocks = append(blocks, blk.Data)
						}
					}
				}
				return true
			})
		}
		if len(blocks) != 4*16 {
			t.Fatalf("snapshot %v: recovered %d blocks, want 64", fromSnapshot, len(blocks))
		}

		m = jobLocked(clB, luID, func(j *job) *matrix.Blocked { return j.spec.M })
		w = join(t, clB, "w", 0, 1)
		for !allTerminal(clB) {
			serveOne(w, m)
		}
		mm, err := clB.JobResult(mmID)
		if err != nil || mm.Assemble().MaxDiff(ref) != 0 {
			t.Fatalf("snapshot %v: recovered product is not bit-exact (%v)", fromSnapshot, err)
		}
		if res, err := clB.JobResult(luID); err != nil || !sameMatrix(res, luReference(t, orig, q)) {
			t.Fatalf("snapshot %v: recovered LU is not bit-identical to lu.Factor (%v)", fromSnapshot, err)
		}
		for _, id := range []JobID{mmID, luID} {
			clB.ForgetResult(id)
			if got := retained(t, clB, id); got != 0 {
				t.Fatalf("snapshot %v: job %d retains %d matrices once forgotten", fromSnapshot, id, got)
			}
		}
		if poolChecked {
			for n, blk := range blocks {
				for _, v := range blk {
					if !math.IsNaN(v) {
						t.Fatalf("snapshot %v: recovered block %d was not released to the pool", fromSnapshot, n)
					}
				}
			}
		}
		clB.Close()
		jnB.Close()
	}
}

// TestFailedJobReleasesOnlyAfterHoldersLetGo: a job that fails while a
// live worker's session still holds one of its tasks keeps its operands
// — the worker streams sets for it until it reports — and releases them
// on that report.
func TestFailedJobReleasesOnlyAfterHoldersLetGo(t *testing.T) {
	cl, _ := manualCluster(Config{MaxAttempts: 1})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 57)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	doomed := join(t, cl, "doomed", 0, 1)
	holder := join(t, cl, "holder", 0, 1)
	pullTask(t, doomed)
	held := pullTask(t, holder)
	// MaxAttempts 1: the requeue quarantines the job. The dead session
	// lets go when it closes.
	doomed.Close(SessionReport{})
	if st := waitStatus(t, cl, id); st.State != Failed {
		t.Fatalf("job = %+v, want failed", st)
	}
	cl.ForgetResult(id)
	if got := retained(t, cl, id); got != 3 {
		t.Fatalf("failed job retains %d matrices while a worker holds its task, want 3", got)
	}
	if _, err := holder.Set(held.key(), 1); err != nil {
		t.Fatalf("holder's set request on the failed job: %v", err)
	}
	if err := complete(holder, held, refChunk(held, matrix.Partition(ref, 4))); err != nil {
		t.Fatal(err)
	}
	if got := retained(t, cl, id); got != 0 {
		t.Fatalf("failed job retains %d matrices after its last holder reported, want 0", got)
	}
}

// TestCompactLogSkipsReleasedJobs: a snapshot taken mid-run must not
// dereference released matrices — released unkeyed jobs are left out of
// it, a finished keyed job is written with its operands absent and its
// result intact, and a running job resumes from it.
func TestCompactLogSkipsReleasedJobs(t *testing.T) {
	dir := t.TempDir()
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	w1 := join(t, clA, "w1", 0, 1)
	// One job after the other, so every pulled task belongs to the job
	// being driven: an unkeyed one finished and forgotten, a keyed one
	// finished, and a third left with one chunk committed and one task
	// in flight across the snapshot.
	var refs [3]*matrix.Dense
	var ids [3]JobID
	for n := range ids {
		c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, int64(61+3*n))
		key := uint64(0)
		if n == 1 {
			key = 4242
		}
		id, _, err := clA.SubmitJobKeyed(key, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids[n], refs[n] = id, ref
		if n < 2 {
			completeAll(t, w1, id, matrix.Partition(ref, 4))
			continue
		}
		task := pullTask(t, w1)
		if err := complete(w1, task, refChunk(task, matrix.Partition(ref, 4))); err != nil {
			t.Fatal(err)
		}
		pullTask(t, w1)
	}
	gone, keyed, running := ids[0], ids[1], ids[2]
	clA.ForgetResult(gone)
	if got := retained(t, clA, gone); got != 0 {
		t.Fatalf("unkeyed finished job retains %d matrices, want 0", got)
	}
	if err := clA.CompactLog(); err != nil {
		t.Fatalf("CompactLog with released jobs in the table: %v", err)
	}
	if n := len(clA.Jobs()); n != 3 {
		t.Fatalf("live job table has %d records after compaction, want all 3", n)
	}
	jnA.Close()

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshots != 1 || rs.Jobs != 2 || rs.Done != 1 || rs.Resumed != 1 {
		t.Fatalf("RecoveryStats = %+v, want the keyed and the running job only", rs)
	}
	if _, err := clB.JobStatus(gone); err == nil {
		t.Fatal("released job was written to the snapshot")
	}
	if got := retained(t, clB, keyed); got != 1 {
		t.Fatalf("recovered keyed job retains %d matrices, want its result only", got)
	}
	res, err := clB.JobResult(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Assemble().MaxDiff(refs[1]); d != 0 {
		t.Fatalf("keyed result after compaction differs by %g", d)
	}
	completeAll(t, join(t, clB, "w2", 0, 1), running, matrix.Partition(refs[2], 4))
	res, err = clB.JobResult(running)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Assemble().MaxDiff(refs[2]); d != 0 {
		t.Fatalf("resumed job after compaction differs by %g", d)
	}
}

// TestFeedHoldOutlivesDeadIncarnation: a session holding a task keeps
// the job's operands while it holds it, even once its incarnation is
// declared dead and the job finished elsewhere — matmul Sets reference
// the job's blocks, and the session may still be writing one. The
// operands go when the session lets go (Close), not before.
func TestFeedHoldOutlivesDeadIncarnation(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 59)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed := join(t, cl, "held", 0, 1)
	as, err := feed.Next()
	if err != nil {
		t.Fatal(err)
	}
	set, err := feed.Set(as.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if set.Owned {
		t.Fatal("a matmul set is owned: it should reference the job's operands")
	}
	if &set.A[0][0] != &a.Block(as.I0, 0).Data[0] {
		t.Fatal("a matmul set's A block is not the job's own")
	}
	feed.Lost()
	completeAll(t, join(t, cl, "w2", 0, 1), id, matrix.Partition(ref, 4))
	cl.ForgetResult(id)
	if got := retained(t, cl, id); got != 3 {
		t.Fatalf("job retains %d matrices while a dead session holds its task, want 3", got)
	}
	feed.Close(SessionReport{})
	if got := retained(t, cl, id); got != 0 {
		t.Fatalf("job retains %d matrices after the session let go, want 0", got)
	}
}

// serveLU completes the LU tasks session s pulls with honest tiles,
// asking for each one's Set first as a feeder would, until done says
// the last task served was enough.
func serveLU(t *testing.T, s *Session, m *matrix.Blocked, done func(*Task) bool) {
	t.Helper()
	for {
		tk := pullTask(t, s)
		if _, err := s.Set(tk.key(), 0); err != nil {
			t.Fatal(err)
		}
		if err := complete(s, tk, honestLUTask(m, tk)); err != nil {
			t.Fatal(err)
		}
		if done(tk) {
			return
		}
	}
}

// TestStagePanelOutlivesLostHolder: an LU Set references its stage's
// negated L panel, a pooled buffer, so the panel must outlive the stage
// for as long as a session holds a task of the job — here one declared
// lost mid-stage-0 while a survivor moves the job on to stage 1. Under
// the poolcheck tag a panel freed early reads as NaN poison.
func TestStagePanelOutlivesLostHolder(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	const q, r = 8, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 61)
	want := luReference(t, orig, q)
	m := matrix.Partition(orig.Clone(), q)
	id, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	lost := join(t, cl, "lost", 64, 1)
	tk := pullTask(t, lost)
	set, err := lost.Set(tk.key(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tk.K != 0 || set.Owned {
		t.Fatalf("task stage %d, set owned %v: want a stage-0 set referencing the panel", tk.K, set.Owned)
	}
	lost.Lost()

	surv := join(t, cl, "survivor", 64, 1)
	serveLU(t, surv, m, func(tk *Task) bool { return tk.K == 1 })
	for n, blk := range set.A {
		l := want.Block(tk.Chunk.I0+n, 0).Data
		for e, v := range blk {
			if math.Float64bits(v) != math.Float64bits(-l[e]) {
				t.Fatalf("in stage 1 the lost session's A block %d holds %g at %d, want −L = %g",
					n, v, e, -l[e])
			}
		}
	}
	lost.Close(SessionReport{})
	serveLU(t, surv, m, func(*Task) bool {
		st, err := cl.JobStatus(id)
		return err != nil || st.State == Done
	})
	if !sameMatrix(m, want) {
		t.Fatal("LU is not bit-identical to lu.Factor")
	}
}

// TestNextAfterCloseTakesNoHold: a Next blocked in the scheduler when
// the session closes must not leave a hold behind when it returns, or
// the job's memory is never released.
func TestNextAfterCloseTakesNoHold(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	feed := join(t, cl, "late", 0, 1)
	next := make(chan error, 1)
	go func() {
		_, err := feed.Next()
		next <- err
	}()
	feed.Close(SessionReport{})
	c, a, b, ref := blockedInputs(t, 4, 4, 4, 4, 61)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-next; err == nil {
		t.Fatal("Next after Close handed out an assignment")
	}
	completeAll(t, join(t, cl, "w2", 0, 1), id, matrix.Partition(ref, 4))
	cl.ForgetResult(id)
	if got := retained(t, cl, id); got != 0 {
		t.Fatalf("job retains %d matrices: a Next that returned after Close kept a hold", got)
	}
}

// TestRunLocalWorkerWaitsForItsFeeder: RunLocalWorker returns only once
// its feeder goroutine has, on the clean path too — the session's holds
// may only go after the feeder's last Send.
func TestRunLocalWorkerWaitsForItsFeeder(t *testing.T) {
	feeders := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "cluster.(*Session).serveLocal.func")
	}
	for i := 0; i < 20; i++ {
		cl, _ := manualCluster(Config{})
		c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, int64(63+i))
		id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			cl.Wait(id)
			cl.Close()
		}()
		if err := RunLocalWorker(cl, LocalWorkerConfig{ID: "w1", Mem: 64}); err != nil {
			t.Fatal(err)
		}
		if n := feeders(); n != 0 {
			t.Fatalf("run %d: %d feeder goroutines outlived RunLocalWorker", i, n)
		}
	}
}

// TestDropNamesOnlyReleasedJobs: a session's next assignment tells its
// worker to drop a job's blocks only once the job is released — never
// while the job runs beside another, nor while this session still holds
// a task of it, here a speculation loser that outlives its job. The
// drop then rides the next assignment of every session that was sent
// the job's blocks, once.
func TestDropNamesOnlyReleasedJobs(t *testing.T) {
	cl, _ := manualCluster(sweepConfig(nil))
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 16, 16, 16, 4, 81)
	first, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	var drops []string // every non-empty Drop, as "session: jobs"
	next := func(s *Session) *engine.Assign {
		as := dispatch(t, s)
		if len(as.Drop) > 0 {
			drops = append(drops, fmt.Sprintf("%s: %v", s.w.id, as.Drop))
		}
		return as
	}
	// A slow worker takes the whole grid; a fast idle one duplicates one
	// of its chunks and wins, so the slow copy is a loser it still holds.
	slow := join(t, cl, "slow", 0, 16)
	slow.ObserveCompute(engine.AssignID{}, 20, int64(time.Second))
	var held []*engine.Assign
	for !jobLocked(cl, first, func(j *job) bool { return j.cutter.Empty() && len(j.pending) == 0 }) {
		held = append(held, next(slow))
	}
	fast := join(t, cl, "fast", engine.Ledger{}.Add(2, 2).Blocks(), 1) // cut at µ ≤ 2
	fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
	dup := next(fast)
	finishTask(t, fast, dup)
	var loser *engine.Assign
	for _, as := range held {
		if as.ID.B == dup.ID.B {
			loser = as
			continue
		}
		finishTask(t, slow, as)
	}
	if st, _ := cl.JobStatus(first); st.State != Done || loser == nil {
		t.Fatalf("first job %v with loser %v, want Done with a loser held", st.State, loser)
	}

	// A second job runs while the loser is still held: nobody drops the
	// first job yet, and nobody ever drops the second while it runs.
	c2, a2, b2, _ := blockedInputs(t, 32, 32, 32, 4, 82)
	second, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c2, A: a2, B: b2, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	finishTask(t, fast, next(fast))
	finishTask(t, slow, next(slow))
	if len(drops) != 0 {
		t.Fatalf("drops %v while the first job's loser is held", drops)
	}
	// The loser reports: its job is released, and each session's next
	// assignment — of the second job — drops it, once.
	if err := slow.Commit(&engine.Result{ID: loser.ID, Blocks: loser.Blocks}, engine.CommStats{}); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("loser's commit = %v, want ErrStaleTask", err)
	}
	for range 2 {
		finishTask(t, fast, next(fast))
		finishTask(t, slow, next(slow))
	}
	want := []string{fmt.Sprintf("fast: [%d]", first), fmt.Sprintf("slow: [%d]", first)}
	if !slices.Equal(drops, want) {
		t.Fatalf("drops %v, want %v", drops, want)
	}
	if st, _ := cl.JobStatus(second); st.State != Running {
		t.Fatalf("second job %v, want it still running", st.State)
	}
}
