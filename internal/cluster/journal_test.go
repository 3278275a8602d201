package cluster

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/store"
)

// openLog opens (or reopens) the journal under dir as a JobLog.
func openLog(t *testing.T, dir string) (*store.Journal, JobLog) {
	t.Helper()
	jn, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jn, NewStoreLog(jn)
}

// refChunk extracts a task's final tile values from the partitioned
// reference result — what a correct worker would have computed.
func refChunk(t *Task, ref *matrix.Blocked) [][]float64 {
	ch := t.Chunk
	out := make([][]float64, ch.Rows*ch.Cols)
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			out[i*ch.Cols+j] = ref.Block(ch.I0+i, ch.J0+j).Data
		}
	}
	return out
}

// assertNoDuplicateCommits replays the journal and fails on any chunk
// committed twice — the acceptance criterion's "zero duplicate task
// execution" witness.
func assertNoDuplicateCommits(t *testing.T, dir string) []ChunkCommit {
	t.Helper()
	chunks, _, err := ReplayChunkCommits(dir)
	if err != nil {
		t.Fatalf("ReplayChunkCommits: %v", err)
	}
	seen := make(map[[2]int]bool)
	for _, c := range chunks {
		k := [2]int{int(c.Job), c.Seq}
		if seen[k] {
			t.Fatalf("chunk %d/%d committed twice in the journal", c.Job, c.Seq)
		}
		seen[k] = true
	}
	return chunks
}

// TestRecoverMidJobMatMul is the deterministic heart of the restart
// story: a master accepts a pre-cut matmul job, two of four chunks
// commit, the process "crashes" (the journal just stops), and a fresh
// cluster over the same directory resumes exactly the other two chunks
// and finishes bit-exact against the naive oracle.
func TestRecoverMidJobMatMul(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 5) // 4×4 block grid
	refB := matrix.Partition(ref, 32)

	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id, attached, err := clA.SubmitJobKeyed(77, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil || attached {
		t.Fatalf("SubmitJobKeyed = %d, %v, %v", id, attached, err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	for i := 0; i < 2; i++ {
		task := pullTask(t, w1)
		if err := complete(w1, task, refChunk(task, refB)); err != nil {
			t.Fatal(err)
		}
	}
	jnA.Close() // crash: clA is abandoned mid-job, never Closed

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Jobs != 1 || rs.Resumed != 1 || rs.Chunks != 2 {
		t.Fatalf("RecoveryStats = %+v, want 1 job resumed with 2 chunks", rs)
	}
	st, err := clB.JobStatus(id)
	if err != nil || st.State != Running || st.TasksDone != 2 {
		t.Fatalf("recovered status = %+v, %v", st, err)
	}
	// Resubmitting the accepted key attaches to the recovered job.
	rid, attached, err := clB.SubmitJobKeyed(77, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil || !attached || rid != id {
		t.Fatalf("keyed resubmit after restart = %d, %v, %v; want %d attached", rid, attached, err, id)
	}

	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clB, LocalWorkerConfig{ID: "w2"}) }()
	if st := waitStatus(t, clB, id); st.State != Done {
		t.Fatalf("job after recovery+worker = %+v", st)
	}
	res, err := clB.JobResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Assemble().MaxDiff(ref); diff != 0 {
		t.Fatalf("recovered result differs from naive oracle by %g; want bit-exact", diff)
	}
	chunks := assertNoDuplicateCommits(t, dir)
	if len(chunks) != 4 {
		t.Fatalf("journal has %d chunk commits, want 4", len(chunks))
	}
	clB.Close()
	<-done
}

// trailingTileValue computes what a worker returns for a stage-k LU
// trailing task tile: M(i,j) − M(i,k)·M(k,j) on the current panels.
func trailingTileValue(m *matrix.Blocked, i, j, k int) []float64 {
	q := m.Q
	out := append([]float64(nil), m.Block(i, j).Data...)
	am, bm := m.Block(i, k).Data, m.Block(k, j).Data
	for r := 0; r < q; r++ {
		for c := 0; c < q; c++ {
			s := 0.0
			for x := 0; x < q; x++ {
				s += am[r*q+x] * bm[x*q+c]
			}
			out[r*q+c] -= s
		}
	}
	return out
}

// TestRecoverMidJobLU crashes an LU job mid-stage: the master-side
// panel factorization is replayed from the accepted record (the
// matrices were journaled pre-factor) and only the uncommitted trailing
// tasks are requeued.
func TestRecoverMidJobLU(t *testing.T) {
	dir := t.TempDir()
	const n, q = 128, 32 // r = 4 blocks, stage-0 trailing grid 3×3 at µ=1
	orig := matrix.NewDense(n, n)
	lu.DiagonallyDominant(orig, 3)
	m := matrix.Partition(orig.Clone(), q)

	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id, err := clA.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	for i := 0; i < 2; i++ {
		task := pullTask(t, w1)
		ch := task.Chunk
		if task.Kind != LU || ch.Rows != 1 || ch.Cols != 1 {
			t.Fatalf("unexpected LU task %+v", task)
		}
		val := trailingTileValue(m, ch.I0, ch.J0, task.K)
		if err := complete(w1, task, [][]float64{val}); err != nil {
			t.Fatal(err)
		}
	}
	jnA.Close() // crash mid-stage

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Resumed != 1 || rs.Chunks != 2 {
		t.Fatalf("RecoveryStats = %+v", rs)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clB, LocalWorkerConfig{ID: "w2"}) }()
	if st := waitStatus(t, clB, id); st.State != Done {
		t.Fatalf("LU job after recovery = %+v", st)
	}
	res, err := clB.JobResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if r := lu.Residual(orig, res.Assemble()); r > 1e-6 {
		t.Fatalf("recovered LU residual = %g", r)
	}
	assertNoDuplicateCommits(t, dir)
	clB.Close()
	<-done
}

// TestRecoverTwiceIdentical pins replay idempotence: a second Recover
// over the same journal leaves the scheduler state untouched.
func TestRecoverTwiceIdentical(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 9)
	refB := matrix.Partition(ref, 32)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	task := pullTask(t, w1)
	if err := complete(w1, task, refChunk(task, refB)); err != nil {
		t.Fatal(err)
	}
	jnA.Close()

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	if _, err := clB.Recover(); err != nil {
		t.Fatal(err)
	}
	snap := func() (JobState, int, int, []int, JobID) {
		clB.mu.Lock()
		defer clB.mu.Unlock()
		j := clB.jobs[id]
		var seqs []int
		for _, pt := range j.pending {
			seqs = append(seqs, pt.Seq)
		}
		return j.state, j.done, len(j.doneSeqs), seqs, clB.nextID
	}
	s1, d1, ds1, p1, n1 := snap()
	rs2, err := clB.Recover()
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	s2, d2, ds2, p2, n2 := snap()
	if s1 != s2 || d1 != d2 || ds1 != ds2 || n1 != n2 || len(p1) != len(p2) {
		t.Fatalf("double replay diverged: (%v,%d,%d,%v,%d) vs (%v,%d,%d,%v,%d)",
			s1, d1, ds1, p1, n1, s2, d2, ds2, p2, n2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pending seqs diverged: %v vs %v", p1, p2)
		}
	}
	if rs2.Chunks != 1 || rs2.Jobs != 1 {
		t.Fatalf("second replay stats = %+v", rs2)
	}
}

// TestRecoverAdaptiveCutterJob covers the non-deterministic-seq path:
// an adaptive job's committed chunk is re-claimed from the cutter by
// coordinates, and the remainder is re-carved after restart.
func TestRecoverAdaptiveCutterJob(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 11)
	refB := matrix.Partition(ref, 32)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA, Adaptive: AdaptiveConfig{Enabled: true}})
	id, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	task := pullTask(t, w1)
	if err := complete(w1, task, refChunk(task, refB)); err != nil {
		t.Fatal(err)
	}
	committed := task.Chunk.Blocks
	jnA.Close()

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB, Adaptive: AdaptiveConfig{Enabled: true}})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Chunks != 1 {
		t.Fatalf("RecoveryStats = %+v", rs)
	}
	clB.mu.Lock()
	remaining := clB.jobs[id].cutter.Remaining()
	clB.mu.Unlock()
	if want := 16 - committed; remaining != want {
		t.Fatalf("cutter has %d blocks free after recovery, want %d", remaining, want)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clB, LocalWorkerConfig{ID: "w2"}) }()
	if st := waitStatus(t, clB, id); st.State != Done {
		t.Fatalf("adaptive job after recovery = %+v", st)
	}
	res, err := clB.JobResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Assemble().MaxDiff(ref); diff != 0 {
		t.Fatalf("adaptive recovered result differs by %g", diff)
	}
	assertNoDuplicateCommits(t, dir)
	clB.Close()
	<-done
}

// TestRecoverDoneJobServesResult: a client that lost its connection
// after the job finished resubmits its key against the restarted master
// and fetches the completed result.
func TestRecoverDoneJobServesResult(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 64, 64, 64, 32, 13)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id, _, err := clA.SubmitJobKeyed(99, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clA, LocalWorkerConfig{ID: "w1"}) }()
	if st := waitStatus(t, clA, id); st.State != Done {
		t.Fatalf("job = %+v", st)
	}
	clA.Close()
	<-done
	jnA.Close()

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Done != 1 || rs.Resumed != 0 {
		t.Fatalf("RecoveryStats = %+v, want 1 done job", rs)
	}
	rid, attached, err := clB.SubmitJobKeyed(99, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil || !attached || rid != id {
		t.Fatalf("keyed resubmit = %d, %v, %v", rid, attached, err)
	}
	res, err := clB.JobResult(rid)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Assemble().MaxDiff(ref); diff != 0 {
		t.Fatalf("result after restart differs by %g", diff)
	}
}

// TestQuarantinePersisted: a poison job (tasks exceeding the retry cap)
// parks terminally with the quarantine mark, which survives a restart.
func TestQuarantinePersisted(t *testing.T) {
	dir := t.TempDir()
	c, a, b, _ := blockedInputs(t, 64, 64, 64, 32, 17)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA, MaxAttempts: 1})
	id, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	pullTask(t, w1)
	w1.Lost() // requeue → attempt 1 ≥ MaxAttempts → quarantine
	st, err := clA.JobStatus(id)
	if err != nil || st.State != Failed || !st.Quarantined {
		t.Fatalf("status after poison = %+v, %v", st, err)
	}
	if cs := clA.ClusterStats(); cs.JobsQuarantined != 1 {
		t.Fatalf("Stats.JobsQuarantined = %d, want 1", cs.JobsQuarantined)
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
	if rs.Failed != 1 {
		t.Fatalf("RecoveryStats = %+v, want 1 failed", rs)
	}
	st, err = clB.JobStatus(id)
	if err != nil || st.State != Failed || !st.Quarantined {
		t.Fatalf("status after restart = %+v, %v", st, err)
	}
	if cs := clB.ClusterStats(); cs.JobsQuarantined != 1 {
		t.Fatalf("restarted Stats.JobsQuarantined = %d, want 1", cs.JobsQuarantined)
	}
}

// TestRetryBackoffDelaysRequeue: after a loss, the requeued copy is
// ineligible until the policy's backoff elapses on the manual clock.
func TestRetryBackoffDelaysRequeue(t *testing.T) {
	c, a, b, _ := blockedInputs(t, 64, 64, 64, 32, 19)
	cl, clk := manualCluster(Config{Retry: RetryPolicy{Backoff: 10 * time.Second}})
	defer cl.Close()
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	w1 := join(t, cl, "w1", 0, 1)
	pullTask(t, w1)
	w1.Lost() // requeues with notBefore = now + 10s
	w2 := join(t, cl, "w2", 0, 1)
	got := make(chan *Task, 1)
	go func() {
		task, err := next(w2)
		if err != nil {
			t.Errorf("Next(w2): %v", err)
		}
		got <- task
	}()
	select {
	case task := <-got:
		t.Fatalf("task %d dispatched during its 10s backoff", task.Seq)
	case <-time.After(100 * time.Millisecond):
	}
	clk.Advance(11 * time.Second)
	cl.CheckExpiry() // the ManualClock wake-up source
	select {
	case task := <-got:
		if task == nil {
			t.Fatal("nil task after backoff expiry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task not dispatched after backoff expired")
	}
}

// TestRetryPolicyDelays pins the exponential shape and its cap.
func TestRetryPolicyDelays(t *testing.T) {
	p := RetryPolicy{Backoff: time.Second}
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{{1, time.Second}, {2, 2 * time.Second}, {3, 4 * time.Second}, {5, 16 * time.Second}, {9, 16 * time.Second}} {
		if got := p.delay(tc.attempt); got != tc.want {
			t.Fatalf("delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	capped := RetryPolicy{Backoff: time.Second, MaxBackoff: 3 * time.Second}
	if got := capped.delay(4); got != 3*time.Second {
		t.Fatalf("capped delay(4) = %v, want 3s", got)
	}
	if got := (RetryPolicy{}).delay(7); got != 0 {
		t.Fatalf("zero policy delay = %v, want 0", got)
	}
}

// TestSubmitRefusedWhenFsyncFails: an accept that cannot be persisted
// is refused, and the broken log latches so later submits fail too.
func TestSubmitRefusedWhenFsyncFails(t *testing.T) {
	boom := errors.New("disk gone")
	jn, err := store.Open(t.TempDir(), store.Options{Sync: func(*os.File) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	c, a, b, _ := blockedInputs(t, 64, 64, 64, 32, 23)
	cl, _ := manualCluster(Config{Log: NewStoreLog(jn)})
	defer cl.Close()
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); !errors.Is(err, boom) {
		t.Fatalf("submit with failing fsync = %v, want wrapped %v", err, boom)
	}
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err == nil {
		t.Fatal("submit after log breakage succeeded")
	}
}

// countingLog is a JobLog that only counts appends.
type countingLog struct{ appends int }

func (l *countingLog) Append([]byte) error                   { l.appends++; return nil }
func (l *countingLog) Replay(func([]byte, bool) error) error { return nil }
func (l *countingLog) Compact([]byte) error                  { return nil }

// TestSubmitRefusedBeyondBlockIDs: results come back only as tiles
// flushed under engine.CBlockID, so a job whose last C tile has no ID —
// a result grid side over 65536 blocks, or a job number past the ID's
// 29-bit field — is refused with ErrBeyondBlockIDs before anything is
// journaled.
func TestSubmitRefusedBeyondBlockIDs(t *testing.T) {
	log := &countingLog{}
	cl, _ := manualCluster(Config{Log: log})
	defer cl.Close()
	// q = 1, so the 65537×1-block C costs a few MiB of block headers.
	const side = 1<<16 + 1
	tall := JobSpec{Kind: MatMul, Mu: 1,
		C: matrix.NewBlocked(side, 1, 1), A: matrix.NewBlocked(side, 1, 1), B: matrix.NewBlocked(1, 1, 1)}
	if _, err := cl.SubmitJob(tall); !errors.Is(err, ErrBeyondBlockIDs) {
		t.Fatalf("submit of a %d-block-tall C = %v, want ErrBeyondBlockIDs", side, err)
	}
	if log.appends != 0 {
		t.Fatalf("refused submit journaled %d records", log.appends)
	}
	// The last job number the field holds is admitted; the next is not.
	small := func() JobSpec {
		c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 71)
		return JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}
	}
	const last = 1<<29 - 1
	cl.mu.Lock()
	cl.nextID = last
	cl.mu.Unlock()
	if id, err := cl.SubmitJob(small()); err != nil || id != last {
		t.Fatalf("submit as job %d = %d, %v, want admitted", last, id, err)
	}
	if _, err := cl.SubmitJob(small()); !errors.Is(err, ErrBeyondBlockIDs) {
		t.Fatalf("submit as job %d = %v, want ErrBeyondBlockIDs", last+1, err)
	}
	if log.appends != 1 || len(cl.Jobs()) != 1 {
		t.Fatalf("%d records journaled, %d jobs admitted, want the one admitted job's only", log.appends, len(cl.Jobs()))
	}
}

// TestDrainRejectsNewAcceptsResubmit: draining refuses fresh work but
// keyed resubmits of accepted jobs still attach, and AwaitQuiesce
// reports completion.
func TestDrainRejectsNewAcceptsResubmit(t *testing.T) {
	c, a, b, _ := blockedInputs(t, 64, 64, 64, 32, 29)
	cl, _ := manualCluster(Config{})
	defer cl.Close()
	id, _, err := cl.SubmitJobKeyed(5, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl.Drain()
	if _, _, err := cl.SubmitJobKeyed(6, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	rid, attached, err := cl.SubmitJobKeyed(5, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil || !attached || rid != id {
		t.Fatalf("keyed resubmit while draining = %d, %v, %v", rid, attached, err)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(cl, LocalWorkerConfig{ID: "w1"}) }()
	if !cl.AwaitQuiesce(30 * time.Second) {
		t.Fatal("AwaitQuiesce timed out with a live worker")
	}
	if st, _ := cl.JobStatus(id); st.State != Done {
		t.Fatalf("job after drain = %+v", st)
	}
	cl.Close()
	<-done
}

// TestCompactLogBoundsReplay: snapshot compaction collapses the journal
// into one segment whose replay reproduces the full state — including
// an LU job's already-factored panels, which must not re-factor.
func TestCompactLogBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	const n, q = 128, 32
	orig := matrix.NewDense(n, n)
	lu.DiagonallyDominant(orig, 31)
	m := matrix.Partition(orig.Clone(), q)
	c, a, b, ref := blockedInputs(t, 128, 128, 128, 32, 37)
	refB := matrix.Partition(ref, 32)

	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	luID, err := clA.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	mmID, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, clA, "w1", 0, 1)
	// Commit one LU trailing tile and one matmul chunk, then crash,
	// recover, and compact: the snapshot must capture the mid-stage LU
	// state verbatim.
	for i := 0; i < 2; i++ {
		task := pullTask(t, w1)
		var blocks [][]float64
		if task.Kind == LU {
			blocks = [][]float64{trailingTileValue(m, task.Chunk.I0, task.Chunk.J0, task.K)}
		} else {
			blocks = refChunk(task, refB)
		}
		if err := complete(w1, task, blocks); err != nil {
			t.Fatal(err)
		}
	}
	jnA.Close()

	jnB, logB := openLog(t, dir)
	clB, _ := manualCluster(Config{Log: logB})
	if _, err := clB.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := clB.CompactLog(); err != nil {
		t.Fatalf("CompactLog: %v", err)
	}
	clB.Close()
	jnB.Close()

	// Third boot replays only the snapshot; both jobs must finish
	// correctly from it.
	jnC, logC := openLog(t, dir)
	defer jnC.Close()
	clC, _ := manualCluster(Config{Log: logC})
	defer clC.Close()
	rs, err := clC.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshots != 1 || rs.Resumed != 2 {
		t.Fatalf("RecoveryStats after compaction = %+v", rs)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clC, LocalWorkerConfig{ID: "w2"}) }()
	if st := waitStatus(t, clC, luID); st.State != Done {
		t.Fatalf("LU job from snapshot = %+v", st)
	}
	if st := waitStatus(t, clC, mmID); st.State != Done {
		t.Fatalf("matmul job from snapshot = %+v", st)
	}
	luRes, err := clC.JobResult(luID)
	if err != nil {
		t.Fatal(err)
	}
	if r := lu.Residual(orig, luRes.Assemble()); r > 1e-6 {
		t.Fatalf("LU residual after snapshot recovery = %g", r)
	}
	mmRes, err := clC.JobResult(mmID)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mmRes.Assemble().MaxDiff(ref); diff != 0 {
		t.Fatalf("matmul result after snapshot recovery differs by %g", diff)
	}
	clC.Close()
	<-done
}

// TestAcceptedRecordSizedUpFront pins the journal's biggest record to
// one buffer: grown by append, a job's operand record left several times
// its own size in garbage per submit — about 40 MB for a 6 MiB record —
// and a durable master spent its time collecting it.
func TestAcceptedRecordSizedUpFront(t *testing.T) {
	mk := func(br, bc int) *matrix.Blocked {
		d := matrix.NewDense(br*16, bc*16)
		matrix.DeterministicFill(d, int64(br+bc))
		return matrix.Partition(d, 16)
	}
	mm := JobSpec{Kind: MatMul, C: mk(3, 2), A: mk(3, 4), B: mk(4, 2), Mu: 2}
	luSpec := JobSpec{Kind: LU, M: mk(3, 3), Mu: 2}
	released := JobSpec{Kind: MatMul, C: mk(3, 2), Mu: 2} // A and B dropped: written as 0×0
	for _, spec := range []JobSpec{mm, luSpec, released} {
		rec := encodeAccepted(7, 99, spec, false)
		want := 32 + matLen(spec.M) + matLen(spec.C) + matLen(spec.A) + matLen(spec.B)
		if cap(rec) != want || len(rec) > want {
			t.Fatalf("%v record: len %d cap %d, want one buffer of cap %d", spec.Kind, len(rec), cap(rec), want)
		}
	}
}
