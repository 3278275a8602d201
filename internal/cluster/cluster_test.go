package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
)

func manualCluster(cfg Config) (*Cluster, *ManualClock) {
	clk := NewManualClock(time.Unix(0, 0))
	cfg.Clock = clk
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = time.Minute
	}
	return New(cfg), clk
}

func waitStatus(t *testing.T, cl *Cluster, id JobID) Status {
	t.Helper()
	type res struct {
		st  Status
		err error
	}
	ch := make(chan res, 1)
	go func() {
		st, err := cl.Wait(id)
		ch <- res{st, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Wait(%d): %v", id, r.err)
		}
		return r.st
	case <-time.After(30 * time.Second):
		t.Fatalf("Wait(%d): timed out", id)
		return Status{}
	}
}

// waitParked waits until Session.Next callers have blocked in cond.Wait
// n times in all, so a check that a pull does not return runs after the
// dispatcher provably parked rather than after a guessed delay.
func waitParked(t *testing.T, cl *Cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl.mu.Lock()
		parks := cl.parks
		cl.mu.Unlock()
		if parks >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("Next parked %d times, want %d", parks, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// allTerminal reports that every job the cluster holds is Done or Failed.
func allTerminal(cl *Cluster) bool {
	st := cl.ClusterStats()
	return st.JobsDone+st.JobsFailed == len(cl.Jobs())
}

// join registers a worker and returns its session.
func join(t *testing.T, cl *Cluster, id string, mem, slots int) *Session {
	t.Helper()
	s, err := cl.JoinWorker(id, mem, slots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// next is Session.Next for tests: the task behind the assignment it
// dispatched.
func next(s *Session) (*Task, error) {
	as, err := s.Next()
	if err != nil {
		return nil, err
	}
	s.cl.mu.Lock()
	defer s.cl.mu.Unlock()
	return s.held[as.ID], nil
}

// guarded runs one pull under a timeout, so a pull that blocks fails
// the test instead of hanging it.
func guarded[T any](t *testing.T, pull func() (T, error)) (T, error) {
	t.Helper()
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := pull()
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("pull blocked")
		var zero T
		return zero, nil
	}
}

// pullTask runs next with a timeout so a scheduling bug cannot hang the
// suite.
func pullTask(t *testing.T, s *Session) *Task {
	t.Helper()
	tk, err := guarded(t, func() (*Task, error) { return next(s) })
	if err != nil {
		t.Fatalf("Next(%s): %v", s.w.id, err)
	}
	return tk
}

// complete retires a held task the way the worker does: one Result
// carrying the task's tile with the given values, row-major.
func complete(s *Session, tk *Task, blocks [][]float64) error {
	return s.Commit(&engine.Result{ID: tk.key(), Blocks: blocks}, engine.CommStats{})
}

// setOf materializes the k-th update set of any task, held or not: the
// guard a released job's operands meet.
func setOf(cl *Cluster, tk *Task, k int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.setLocked(tk, k, &engine.Set{})
}

// luReference is what every cluster LU run must reproduce bit for bit
// (sameMatrix): lu.Factor of orig with the block edge q as its panel,
// partitioned into q-blocks.
func luReference(t *testing.T, orig *matrix.Dense, q int) *matrix.Blocked {
	t.Helper()
	want := orig.Clone()
	if err := lu.Factor(want, q); err != nil {
		t.Fatal(err)
	}
	return matrix.Partition(want, q)
}

func blockedInputs(t *testing.T, nA, nAB, nB, q int, seed int64) (c, a, b *matrix.Blocked, ref *matrix.Dense) {
	t.Helper()
	ad := matrix.NewDense(nA, nAB)
	bd := matrix.NewDense(nAB, nB)
	cd := matrix.NewDense(nA, nB)
	matrix.DeterministicFill(ad, seed)
	matrix.DeterministicFill(bd, seed+1)
	matrix.DeterministicFill(cd, seed+2)
	ref = cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(cd, q), matrix.Partition(ad, q), matrix.Partition(bd, q), ref
}

func TestRegistryHeartbeatExpiry(t *testing.T) {
	cl, clk := manualCluster(Config{HeartbeatTimeout: 10 * time.Second})
	defer cl.Close()
	w1 := join(t, cl, "w1", 100, 1)
	w2 := join(t, cl, "w2", 100, 1)

	clk.Advance(8 * time.Second)
	if err := w1.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second) // w2 silent for 13s, w1 for 5s
	dead := cl.CheckExpiry()
	if len(dead) != 1 || dead[0] != "w2" {
		t.Fatalf("CheckExpiry = %v, want [w2]", dead)
	}
	if err := w2.Heartbeat(); err == nil {
		t.Fatal("heartbeat from dead worker succeeded")
	}
	if err := w1.Heartbeat(); err != nil {
		t.Fatalf("heartbeat from live worker failed: %v", err)
	}
	// Re-registering resurrects the id.
	join(t, cl, "w2", 50, 1)
	if got := cl.ClusterStats(); got.WorkersAlive != 2 || got.WorkersLost != 1 {
		t.Fatalf("stats = %+v, want 2 alive / 1 lost", got)
	}
	if err := w2.Heartbeat(); err == nil {
		t.Fatal("heartbeat from the replaced incarnation succeeded")
	}
}

func TestSingleMatMulJob(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	for _, id := range []string{"w1", "w2"} {
		go RunLocalWorker(cl, LocalWorkerConfig{ID: id, Mem: 64})
	}
	c, a, b, ref := blockedInputs(t, 24, 16, 32, 4, 1)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
	if st.TasksDone != st.TasksTotal || st.TasksTotal == 0 {
		t.Fatalf("tasks %d/%d", st.TasksDone, st.TasksTotal)
	}
}

// TestLUJobMatchesSequentialFactor pins the cluster's LU to lu.Factor
// bit for bit: the master factors each panel with lu.Factor's kernels
// and the workers' trailing updates run the same FMA chain as its
// GemmSub, so no element may differ, whatever the block edge and µ.
func TestLUJobMatchesSequentialFactor(t *testing.T) {
	for _, sh := range []struct{ q, r int }{{7, 6}, {8, 5}, {16, 5}, {32, 4}, {64, 3}, {80, 3}} {
		for mu := 1; mu <= 3; mu++ {
			t.Run(fmt.Sprintf("q=%d/mu=%d", sh.q, mu), func(t *testing.T) {
				cl, _ := manualCluster(Config{})
				exited := make(chan error, 2)
				for _, id := range []string{"w1", "w2"} {
					go func() { exited <- RunLocalWorker(cl, LocalWorkerConfig{ID: id, Mem: 64}) }()
				}
				defer func() { cl.Close(); <-exited; <-exited }()
				n := sh.q * sh.r
				orig := matrix.NewDense(n, n)
				lu.DiagonallyDominant(orig, 7)
				m := matrix.Partition(orig.Clone(), sh.q)
				id, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: mu})
				if err != nil {
					t.Fatal(err)
				}
				if st := waitStatus(t, cl, id); st.State != Done {
					t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
				}
				if !sameMatrix(m, luReference(t, orig, sh.q)) {
					t.Fatal("cluster LU is not bit-identical to lu.Factor")
				}
			})
		}
	}
}

// exactLU builds M = L·U from small integers — L unit lower with
// entries in {−1, 0, 1}, U upper with pivots in {1, 2} except a zero at
// zeroCol — so unpivoted elimination runs in exact arithmetic and meets
// an exactly zero pivot at column zeroCol.
func exactLU(n, zeroCol int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	l, u := matrix.NewDense(n, n), matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		u.Set(i, i, float64(1+rng.Intn(2)))
		for j := 0; j < i; j++ {
			l.Set(i, j, float64(rng.Intn(3)-1))
		}
		for j := i + 1; j < n; j++ {
			u.Set(i, j, float64(rng.Intn(3)-1))
		}
	}
	u.Set(zeroCol, zeroCol, 0)
	m := matrix.NewDense(n, n)
	matrix.MulNaive(m, l, u)
	return m
}

// TestLUJobZeroPivotFails: a zero pivot fails the job with the column
// lu.Factor names — at promotion when it is in the first panel, when
// its stage opens otherwise — and the failure is journaled, so a
// recovered master reports it the same way.
func TestLUJobZeroPivotFails(t *testing.T) {
	const q, r = 8, 4
	first := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(first, 5)
	first.Set(0, 0, 0)
	for _, tc := range []struct {
		name      string
		orig      *matrix.Dense
		promotion bool // fails before any task is cut
	}{
		{"stage0", first, true},
		{"stage1", exactLU(q*r, q, 9), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			luErr := lu.Factor(tc.orig.Clone(), q)
			if luErr == nil {
				t.Fatal("lu.Factor accepted the matrix")
			}
			wantMsg := strings.TrimPrefix(luErr.Error(), "lu: ")
			dir := t.TempDir()
			jn, log := openLog(t, dir)
			cl, _ := manualCluster(Config{Log: log})
			exited := make(chan error, 1)
			go func() { exited <- RunLocalWorker(cl, LocalWorkerConfig{ID: "w", Mem: 64}) }()
			id, err := cl.SubmitJob(JobSpec{Kind: LU, M: matrix.Partition(tc.orig.Clone(), q), Mu: 1})
			if err != nil {
				t.Fatal(err)
			}
			st := waitStatus(t, cl, id)
			if st.State != Failed || st.Err == nil || !strings.HasSuffix(st.Err.Error(), wantMsg) {
				t.Fatalf("job ended %v (%v), want failed with %q", st.State, st.Err, wantMsg)
			}
			if (st.TasksTotal == 0) != tc.promotion {
				t.Fatalf("job failed after cutting %d tasks, want failure at promotion %v", st.TasksTotal, tc.promotion)
			}
			cl.Close()
			<-exited
			jn.Close()

			jnB, logB := openLog(t, dir)
			defer jnB.Close()
			clB, _ := manualCluster(Config{Log: logB})
			defer clB.Close()
			if rs, err := clB.Recover(); err != nil || rs.Failed != 1 {
				t.Fatalf("Recover = %+v, %v; want the job failed", rs, err)
			}
			stB, err := clB.JobStatus(id)
			if err != nil {
				t.Fatal(err)
			}
			if stB.State != Failed || stB.Err == nil || stB.Err.Error() != st.Err.Error() {
				t.Fatalf("recovered job %v (%v), want failed with %v", stB.State, stB.Err, st.Err)
			}
		})
	}
}

// TestConcurrentJobsSurviveWorkerCrash is the end-to-end recovery
// scenario: three concurrent jobs (two products and one LU), four
// workers, one of which dies holding a task of the first job. After
// heartbeat expiry the lost task is rescheduled and every job completes
// with reference-exact results — no wall-clock sleeps, no sockets. The
// test itself plays the dying worker through the same Session the
// runners use, which pins the crash point exactly: mid-job, one task
// assigned and never returned.
func TestConcurrentJobsSurviveWorkerCrash(t *testing.T) {
	cl, clk := manualCluster(Config{HeartbeatTimeout: 30 * time.Second})
	defer cl.Close()

	c1, a1, b1, ref1 := blockedInputs(t, 24, 16, 24, 4, 10)
	c2, a2, b2, ref2 := blockedInputs(t, 16, 24, 16, 4, 20)
	const q, r = 4, 6
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 3)
	m := matrix.Partition(orig.Clone(), q)

	j1, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c1, A: a1, B: b1, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c2, A: a2, B: b2, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker grabs a task first — while it is the only worker,
	// so the assignment is guaranteed — and then goes silent.
	doomed := join(t, cl, "w-doomed", 64, 1)
	doomedTask := pullTask(t, doomed)

	var survivors []*Session
	for _, id := range []string{"w1", "w2", "w3"} {
		s := join(t, cl, id, 64, 1)
		survivors = append(survivors, s)
		go s.serveLocal(0)
	}

	// The dead worker holds its task until failure detection notices the
	// silence. Survivors prove their liveness, the clock jumps past the
	// timeout, and expiry reschedules the lost task.
	clk.Advance(31 * time.Second)
	for _, s := range survivors {
		if err := s.Heartbeat(); err != nil {
			t.Fatalf("heartbeat %s: %v", s.w.id, err)
		}
	}
	dead := cl.CheckExpiry()
	if len(dead) != 1 || dead[0] != "w-doomed" {
		t.Fatalf("CheckExpiry = %v, want [w-doomed]", dead)
	}
	// A late result from the dead worker must be rejected, not stored.
	if err := complete(doomed, doomedTask, nil); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("zombie Complete = %v, want ErrStaleTask", err)
	}

	for _, jid := range []JobID{j1, j2, j3} {
		if st := waitStatus(t, cl, jid); st.State != Done {
			t.Fatalf("job %d state = %v (err %v), want done", jid, st.State, st.Err)
		}
	}
	if d := c1.Assemble().MaxDiff(ref1); d > 1e-9 {
		t.Fatalf("job 1: max |C - ref| = %g", d)
	}
	if d := c2.Assemble().MaxDiff(ref2); d > 1e-9 {
		t.Fatalf("job 2: max |C - ref| = %g", d)
	}
	if !sameMatrix(m, luReference(t, orig, q)) {
		t.Fatal("job 3: LU is not bit-identical to lu.Factor")
	}
	st := cl.ClusterStats()
	if st.WorkersLost != 1 {
		t.Fatalf("workers lost = %d, want 1", st.WorkersLost)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want ≥ 1", st.Requeues)
	}
	if st.JobsDone != 3 || st.JobsFailed != 0 {
		t.Fatalf("jobs done/failed = %d/%d, want 3/0", st.JobsDone, st.JobsFailed)
	}
}

func TestTaskExceedsMaxAttemptsFailsJob(t *testing.T) {
	cl, _ := manualCluster(Config{MaxAttempts: 1})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 5)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, cl, "w1", 64, 1)
	pullTask(t, w1)
	w1.Lost() // requeue burns the task's only attempt
	st := waitStatus(t, cl, id)
	if st.State != Failed || st.Err == nil {
		t.Fatalf("job state = %v (err %v), want failed", st.State, st.Err)
	}
}

// TestChunkClampedToWorkerMemory: a chunk side the asking worker cannot
// hold is cut down to one it can — µ=8 on a worker advertising 10
// blocks runs at µ=2 (2² + 2·2 ≤ 10) and finishes bit-exact — while a
// job no live worker can hold even a 1×1 chunk of still fails.
func TestChunkClampedToWorkerMemory(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// C is 8×8 blocks and µ=8: one 64-block chunk plus its staged sets,
	// far beyond the only worker's 10 advertised blocks, which hold the
	// Ledger of a 1×1 chunk (7 blocks) but not of a 2×2 one (16).
	c, a, b, ref := blockedInputs(t, 32, 8, 32, 4, 12)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 8})
	if err != nil {
		t.Fatal(err)
	}
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "small", Mem: 10})
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if st.TasksTotal != 64 || st.TasksDone != 64 {
		t.Fatalf("tasks %d/%d, want sixty-four 1×1 chunks", st.TasksDone, st.TasksTotal)
	}
	if !c.Assemble().Equal(ref, 0) {
		t.Fatal("memory-clamped product not bit-exact")
	}

	cl2, _ := manualCluster(Config{})
	defer cl2.Close()
	c, a, b, _ = blockedInputs(t, 8, 8, 8, 4, 13)
	id, err = cl2.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 blocks cannot hold the Ledger of a 1×1 chunk (7 blocks).
	tiny := join(t, cl2, "tiny", 2, 1)
	go tiny.Next() // triggers dispatch; blocks until Close
	st = waitStatus(t, cl2, id)
	if st.State != Failed || st.Err == nil {
		t.Fatalf("job state = %v (err %v), want failed with a memory error", st.State, st.Err)
	}
}

// TestLostChunkRecutForSmallSurvivor: a chunk lost with the only worker
// that could hold it is not written off — its region goes back to the
// cutter and is re-cut at a side the survivors hold. A µ=2 job loses its
// 64-block worker mid-chunk, the only survivor advertises the Ledger of
// a 1×1 chunk (7 blocks), and the job finishes bit-exact in 1×1 chunks.
func TestLostChunkRecutForSmallSurvivor(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 14) // 4×4 blocks
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := join(t, cl, "big", 64, 1)
	tk := pullTask(t, big)
	if tk.Chunk.Rows != 2 || tk.Chunk.Cols != 2 {
		t.Fatalf("big worker's chunk is %dx%d, want 2x2", tk.Chunk.Rows, tk.Chunk.Cols)
	}
	if _, err := big.Set(tk.key(), 0); err != nil {
		t.Fatal(err)
	}
	big.Lost()
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "small", Mem: engine.Ledger{}.Add(1, 1).Blocks()})
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if st.Requeues != 1 || st.TasksTotal != 16 || st.TasksDone != 16 {
		t.Fatalf("requeues %d, tasks %d/%d; want the lost 2x2 chunk re-cut: 1 requeue, sixteen 1x1 chunks",
			st.Requeues, st.TasksDone, st.TasksTotal)
	}
	if !c.Assemble().Equal(ref, 0) {
		t.Fatal("product after the re-cut not bit-exact")
	}
}

// TestLostLUChunkRecutForSmallSurvivor is the LU case: a trailing-update
// chunk of µ=2 lost with the only big worker is re-cut for a 7-block
// survivor, and the factorization ends bit-identical to lu.Factor's.
func TestLostLUChunkRecutForSmallSurvivor(t *testing.T) {
	const q, r = 8, 5
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 15)

	cl, _ := manualCluster(Config{})
	defer cl.Close()
	m := matrix.Partition(orig.Clone(), q)
	id, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := join(t, cl, "big", 64, 1)
	tk := pullTask(t, big)
	if tk.Job != id || tk.Rows != 2 || tk.Cols != 2 {
		t.Fatalf("big worker's task is job %d's %dx%d chunk, want job %d's 2x2", tk.Job, tk.Rows, tk.Cols, id)
	}
	if _, err := big.Set(tk.key(), 0); err != nil {
		t.Fatal(err)
	}
	big.Lost()
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "small", Mem: engine.Ledger{}.Add(1, 1).Blocks()})
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Requeues)
	}
	if !sameMatrix(m, luReference(t, orig, q)) {
		t.Fatal("LU after the re-cut is not bit-identical to lu.Factor")
	}
}

// TestMultiSlotDispatch pins the Slots contract: a multi-slot worker can
// pull several tasks before completing any, a single-slot worker cannot,
// the summed footprint of held tasks respects the advertised memory, and
// losing the worker requeues every held chunk (the extended recovery).
func TestMultiSlotDispatch(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	// 4×4 blocks, µ=2 → four 4-block chunks; footprint 2·2+2+2 = 8 each.
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 21)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Memory 20 holds two 8-block footprints but not three: even with 3
	// slots the worker may hold only 2 chunks at once.
	multi := join(t, cl, "multi", 20, 3)
	t1 := pullTask(t, multi)
	t2 := pullTask(t, multi)
	if t1.Seq == t2.Seq {
		t.Fatal("same task dispatched twice")
	}
	// Third pull must block on the memory budget.
	got := make(chan *Task, 1)
	go func() {
		t3, err := next(multi)
		if err == nil {
			got <- t3
		}
		close(got)
	}()
	waitParked(t, cl, 1)
	select {
	case t3 := <-got:
		t.Fatalf("third task %v dispatched past the memory budget", t3)
	default:
	}
	for _, w := range cl.Workers() {
		if w.ID == "multi" {
			if w.Slots != 3 || w.Inflight != 2 {
				t.Fatalf("worker snapshot %+v, want slots 3 inflight 2", w)
			}
		}
	}
	// Losing the worker requeues BOTH held chunks; the blocked Next
	// wakes with an error and a fresh worker finishes the job.
	multi.Lost()
	if _, ok := <-got; ok {
		t.Fatal("Next succeeded for a dead worker")
	}
	st := cl.ClusterStats()
	if st.Requeues != 2 {
		t.Fatalf("requeues = %d, want 2 (all held chunks)", st.Requeues)
	}
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 64, Cores: 2})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v", st.State)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
}

// TestSlotCapBlocksPulls: with ample memory, the slot count is the bound.
func TestSlotCapBlocksPulls(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 16, 16, 16, 4, 22)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	solo := join(t, cl, "solo", 1000, 1)
	pullTask(t, solo)
	got := make(chan struct{})
	go func() {
		solo.Next()
		close(got)
	}()
	waitParked(t, cl, 1)
	select {
	case <-got:
		t.Fatal("single-slot worker pulled a second task")
	default:
	}
	cl.Close() // unblock the goroutine
	<-got
}

// TestStaleSessionCannotKillNewIncarnation pins the incarnation
// contract: a worker reconnects (same id, new incarnation) while its old
// transport session is still tearing down; the old session must neither
// pull tasks for the new incarnation, nor declare it lost, nor keep it
// alive with its heartbeats.
func TestStaleSessionCannotKillNewIncarnation(t *testing.T) {
	cl, clk := manualCluster(Config{})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 16, 16, 16, 4, 23)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	old := join(t, cl, "w", 64, 2)
	pullTask(t, old)
	// The worker reconnects before the old session finished dying.
	cur := join(t, cl, "w", 64, 2)
	if cur.w.epoch == old.w.epoch {
		t.Fatal("re-join did not bump the epoch")
	}
	tk, err := next(cur)
	if err != nil {
		t.Fatalf("new incarnation cannot pull: %v", err)
	}
	// Stale session teardown: must be a no-op against the live worker.
	old.Lost()
	for _, w := range cl.Workers() {
		if w.ID == "w" && w.Dead {
			t.Fatal("stale Lost killed the new incarnation")
		}
	}
	// A stale pull must be refused instead of stranding a task.
	if _, err := old.Next(); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale Next = %v, want ErrUnknownWorker", err)
	}
	// A stale heartbeat must be refused and must not refresh the live
	// incarnation's liveness.
	clk.Advance(time.Second)
	seen := snapshotWorker(t, cl, "w").LastSeen
	if err := old.Heartbeat(); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("stale Heartbeat = %v, want ErrUnknownWorker", err)
	}
	if got := snapshotWorker(t, cl, "w").LastSeen; !got.Equal(seen) {
		t.Fatalf("stale Heartbeat moved the live incarnation's lastSeen from %v to %v", seen, got)
	}
	// The live incarnation keeps working: complete its held task.
	if err := complete(cur, tk, refChunk(tk, c)); err != nil {
		t.Fatalf("live incarnation's completion rejected: %v", err)
	}
}

func TestStaleCompletionRejected(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 6)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	w1 := join(t, cl, "w1", 64, 1)
	tk := pullTask(t, w1)
	blocks := refChunk(tk, c)
	w1.Lost()
	if err := complete(w1, tk, blocks); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("Complete after loss = %v, want ErrStaleTask", err)
	}
}

// TestDispatchScansOnlyLiveJobs: dispatch looks at the jobs in flight,
// not at every job ever accepted, so its cost does not grow with the
// jobs served — and the scan still starts after the last job
// served, also when a job leaves the live list between two dispatches.
func TestDispatchScansOnlyLiveJobs(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	w := join(t, cl, "w", 0, 1)
	submit := func(side int) JobID {
		t.Helper()
		c, a, b, _ := blockedInputs(t, side, side, side, 1, int64(side))
		id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	dispatch := func() *Task {
		t.Helper()
		task, err := next(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := complete(w, task, [][]float64{{0}}); err != nil {
			t.Fatal(err)
		}
		return task
	}
	for i := 0; i < 2000; i++ {
		submit(1)
		dispatch()
	}
	x, y, z := submit(2), submit(1), submit(2) // 4, 1 and 4 one-block tasks
	cl.mu.Lock()
	cl.scanned = 0
	cl.mu.Unlock()
	var got []JobID
	got = append(got, dispatch().Job)
	cl.mu.Lock()
	scanned, live := cl.scanned, len(cl.live)
	cl.mu.Unlock()
	// The dispatch's scan looks at every live job at most once; the ack
	// and the commit look at none.
	if live != 3 || scanned > live {
		t.Fatalf("a task's dispatch, ack and commit after 2000 finished jobs examined %d jobs, %d live; want at most one per live job",
			scanned, live)
	}
	for i := 1; i < 9; i++ {
		got = append(got, dispatch().Job)
	}
	want := []JobID{x, y, z, x, z, x, z, x, z}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (round-robin from the job after the last served)", got, want)
		}
	}
}

func TestRejoinRequeuesOldTasks(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 9)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	pullTask(t, join(t, cl, "w1", 64, 1))
	// The worker process restarts and re-registers under the same id: the
	// old incarnation's task must come back to the pool.
	join(t, cl, "w1", 64, 1)
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v", st.State)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
}
