package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
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

// assertNoDuplicateCommits replays the journal and fails on any block
// committed twice — the "zero duplicate task execution" witness. It
// checks blocks, (job, LU stage, row, column), not seqs: one region
// committed under two different seqs is a double apply too.
func assertNoDuplicateCommits(t *testing.T, dir string) []ChunkCommit {
	t.Helper()
	chunks, _, err := ReplayChunkCommits(dir)
	if err != nil {
		t.Fatalf("ReplayChunkCommits: %v", err)
	}
	assertBlocksCommittedOnce(t, chunks)
	return chunks
}

// assertBlocksCommittedOnce fails on a block that two of the chunk
// commits cover.
func assertBlocksCommittedOnce(t *testing.T, chunks []ChunkCommit) {
	t.Helper()
	seen := make(map[[4]int]int)
	for _, c := range chunks {
		for i := c.I0; i < c.I0+c.Rows; i++ {
			for j := c.J0; j < c.J0+c.Cols; j++ {
				k := [4]int{int(c.Job), c.K, i, j}
				if s, ok := seen[k]; ok {
					t.Fatalf("block (%d, %d) of job %d, stage %d, committed twice: by seq %d and seq %d",
						i, j, c.Job, c.K, s, c.Seq)
				}
				seen[k] = c.Seq
			}
		}
	}
}

// TestRecoverMidJobMatMul is the deterministic heart of the restart
// story: a master accepts a matmul job, two of its four chunks
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

// TestRecoverTornAccept: a crash in the middle of writing an accept
// record — here inside its A operand — leaves a torn tail. The journal
// before it recovers, the torn job is absent as though never submitted,
// and a resubmit under its key runs it afresh, bit-exact.
func TestRecoverTornAccept(t *testing.T) {
	dir := t.TempDir()
	c0, a0, b0, ref0 := blockedInputs(t, 32, 32, 32, 8, 21)
	c, a, b, ref := blockedInputs(t, 64, 64, 64, 16, 22)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id0, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c0, A: a0, B: b0, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := clA.SubmitJobKeyed(7, JobSpec{Kind: MatMul, C: c.Clone(), A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	clA.Close()
	jnA.Close()
	// The last record ends with B; cut halfway through A.
	seg := filepath.Join(dir, "wal-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	operand := int64(12 + 8*64*64)
	if err := os.Truncate(seg, fi.Size()-operand-operand/2); err != nil {
		t.Fatal(err)
	}

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil || rs.Jobs != 1 || rs.Resumed != 1 {
		t.Fatalf("Recover = %+v, %v; want the one job before the torn record", rs, err)
	}
	if st := clB.Jobs(); len(st) != 1 || st[0].ID != id0 {
		t.Fatalf("recovered job table = %+v, want job %d alone", st, id0)
	}
	id, attached, err := clB.SubmitJobKeyed(7, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil || attached {
		t.Fatalf("resubmit of the torn job's key = %d, %v, %v; want a fresh job", id, attached, err)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clB, LocalWorkerConfig{ID: "w"}) }()
	for jid, want := range map[JobID]*matrix.Dense{id0: ref0, id: ref} {
		if st := waitStatus(t, clB, jid); st.State != Done {
			t.Fatalf("job %d = %+v", jid, st)
		}
		res, err := clB.JobResult(jid)
		if err != nil {
			t.Fatal(err)
		}
		if diff := res.Assemble().MaxDiff(want); diff != 0 {
			t.Fatalf("job %d differs from the naive oracle by %g; want bit-exact", jid, diff)
		}
	}
	clB.Close()
	<-done
}

// trailingTileValue computes what a worker returns for a stage-k LU
// trailing task tile: M(i,j) + (−M(i,k))·M(k,j) on the current panels,
// through the update chain every worker path runs.
func trailingTileValue(m *matrix.Blocked, i, j, k int) []float64 {
	q := m.Q
	neg := make([]float64, q*q)
	for e, v := range m.Block(i, k).Data {
		neg[e] = -v
	}
	out := make([]float64, q*q)
	blas.RecomputeTile(out, m.Block(i, j).Data, [][]float64{neg}, [][]float64{m.Block(k, j).Data}, q)
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
		if task.Job != id || task.Rows != 1 || task.Cols != 1 {
			t.Fatalf("unexpected LU task %+v", task)
		}
		val := trailingTileValue(m, task.I0, task.J0, task.K)
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
	if !sameMatrix(res, luReference(t, orig, q)) {
		t.Fatal("recovered LU is not bit-identical to lu.Factor")
	}
	assertNoDuplicateCommits(t, dir)
	clB.Close()
	<-done
}

// TestRecoverTwiceIdentical pins replay idempotence: a second Recover
// over the same journal leaves the scheduler state untouched — state,
// commits, the blocks left to cut, pending copies and the next job id.
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
		return j.state, j.done, freeBlocks(j.cutter), seqs, clB.nextID
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
	committed := task.Rows * task.Cols
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
	remaining := freeBlocks(clB.jobs[id].cutter)
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

// TestRecoverHandedBackChunk pins replay across an unjournaled
// hand-back: a snapshot folds in-flight chunk S into the pending pool,
// S is then lost with only a 7-block survivor, so its region goes back
// to the cutter and one 1×1 chunk of it is re-cut and committed under a
// new seq. Recovering from the snapshot plus that record must hand S
// back too — dispatching S again would add A·B onto the committed tile —
// and the product must finish bit-exact.
func TestRecoverHandedBackChunk(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 17) // 2×2 blocks: S is the whole grid at µ=2
	refB := matrix.Partition(ref, 4)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	id, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := join(t, clA, "big", 64, 1)
	if s := pullTask(t, big); s.Chunk.Rows != 2 || s.Chunk.Cols != 2 {
		t.Fatalf("big worker's chunk is %dx%d, want 2x2", s.Chunk.Rows, s.Chunk.Cols)
	}
	if err := clA.CompactLog(); err != nil {
		t.Fatal(err)
	}
	big.Lost()
	small := join(t, clA, "small", 7, 1)
	task := pullTask(t, small)
	if task.Seq == 0 || task.Chunk.Rows != 1 || task.Chunk.Cols != 1 {
		t.Fatalf("small worker's task is seq %d, %dx%d; want a re-cut 1x1", task.Seq, task.Chunk.Rows, task.Chunk.Cols)
	}
	if err := complete(small, task, refChunk(task, refB)); err != nil {
		t.Fatal(err)
	}
	jnA.Close() // crash: the journal is the snapshot plus one chunk record

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	rs, err := clB.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Snapshots != 1 || rs.Chunks != 1 || rs.Resumed != 1 {
		t.Fatalf("RecoveryStats = %+v, want one job resumed from the snapshot and one chunk", rs)
	}
	clB.mu.Lock()
	j := clB.jobs[id]
	pending, remaining := len(j.pending), freeBlocks(j.cutter)
	clB.mu.Unlock()
	if pending != 0 || remaining != 3 {
		t.Fatalf("after recovery: %d pending copies, %d blocks to cut; want S handed back: 0 and 3", pending, remaining)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(clB, LocalWorkerConfig{ID: "w2"}) }()
	if st := waitStatus(t, clB, id); st.State != Done {
		t.Fatalf("job after recovery = %+v", st)
	}
	res, err := clB.JobResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assemble().Equal(ref, 0) {
		t.Fatal("product after recovering a handed-back chunk is not bit-exact")
	}
	assertNoDuplicateCommits(t, dir)
	clB.Close()
	<-done
}

// TestRecoverCorruptChunkRegion: a chunk record whose region is not
// left to commit — here, one committed already under another seq — is
// refused, not silently dropped.
func TestRecoverCorruptChunkRegion(t *testing.T) {
	dir := t.TempDir()
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 19)
	refB := matrix.Partition(ref, 4)
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{Log: logA})
	if _, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	w := join(t, clA, "w", 0, 1)
	task := pullTask(t, w)
	if err := complete(w, task, refChunk(task, refB)); err != nil {
		t.Fatal(err)
	}
	// A second record for the same region under a fresh seq: that region
	// was cut once already.
	dup := *task
	dup.Seq = 99
	clA.mu.Lock()
	clA.logChunkLocked(clA.jobs[task.Job], &dup)
	clA.mu.Unlock()
	jnA.Close()

	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	clB, _ := manualCluster(Config{Log: logB})
	defer clB.Close()
	if _, err := clB.Recover(); err == nil {
		t.Fatal("Recover accepted a chunk record over a region already cut")
	}
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
	}{{1, time.Second}, {2, 2 * time.Second}, {3, 4 * time.Second}, {4, 8 * time.Second}, {5, 16 * time.Second}, {9, 16 * time.Second}} {
		if got := p.delay(tc.attempt); got != tc.want {
			t.Fatalf("delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
	if got := (RetryPolicy{}).delay(7); got != 0 {
		t.Fatalf("zero policy delay = %v, want 0", got)
	}
}

// TestSubmitRefusedWhenFsyncFails: an accept that cannot be persisted
// is refused, and the broken log latches so later submits fail too.
// The accept record is written beside the job's first tasks, so the
// append may fail with a task already computed and reported: the job
// fails with the append's error, the report is dropped as stale (no
// chunk record is written, C is untouched) and the job's matrices go.
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

	// A task in flight when the append fails.
	jn2, err := store.Open(t.TempDir(), store.Options{Sync: func(*os.File) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	log := &opLog{JobLog: NewStoreLog(jn2)}
	log.gate = func([]byte) {
		log.gate = nil
		close(entered)
		<-release
	}
	cl2, _ := manualCluster(Config{Log: log})
	defer cl2.Close()
	c, a, b, _ = blockedInputs(t, 64, 64, 64, 32, 23)
	before := c.Clone()
	refused := make(chan error, 1)
	go func() {
		_, err := cl2.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
		refused <- err
	}()
	<-entered
	w := join(t, cl2, "w", 0, 1)
	as := dispatch(t, w)
	if err := engine.RunAssign(as, w, cl2.pool); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- w.Commit(&engine.Result{ID: as.ID, Blocks: as.Blocks}, engine.CommStats{}) }()
	for deadline := time.Now().Add(10 * time.Second); jobLocked(cl2, 0, func(*job) int { return cl2.acceptWaits }) == 0; time.Sleep(100 * time.Microsecond) {
		if len(committed) > 0 || time.Now().After(deadline) {
			t.Fatal("the commit did not wait for the accept record")
		}
	}
	close(release)
	if err := <-refused; !errors.Is(err, boom) {
		t.Fatalf("submit whose append failed with a task in flight = %v, want wrapped %v", err, boom)
	}
	if err := <-committed; err != nil && !errors.Is(err, ErrStaleTask) {
		t.Fatalf("report of the failed job's task = %v, want it dropped", err)
	}
	st, err := cl2.JobStatus(0)
	if err != nil || st.State != Failed || !errors.Is(st.Err, boom) || st.TasksDone != 0 || st.Retained != 0 {
		t.Fatalf("job whose accept failed: %+v, %v; want Failed with the append's error, nothing committed or retained", st, err)
	}
	if len(log.ops) != 1 || log.ops[0].rec[0] != evAccepted {
		t.Fatalf("%d records reached the log, want the accept record alone", len(log.ops))
	}
	if !sameMatrix(c, before) {
		t.Fatal("the dropped report wrote into C")
	}
}

// countingLog is a JobLog that only counts appends.
type countingLog struct{ appends int }

func (l *countingLog) Append([]byte) error                   { l.appends++; return nil }
func (l *countingLog) Replay(func([]byte, bool) error) error { return nil }
func (l *countingLog) Compact([]byte) error                  { return nil }

// TestJobsPastBlockIDFieldsRun: no block ID names a result tile, so a
// job whose number is past the operand IDs' 29-bit field is admitted
// and runs bit-exact like any other: its operands stamp to the
// untracked ID 0, always ship and never enter a cache, and the drop of
// a released job that number names nothing.
func TestJobsPastBlockIDFieldsRun(t *testing.T) {
	log := &countingLog{}
	cl, _ := manualCluster(Config{Log: log})
	defer cl.Close()
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(cl, LocalWorkerConfig{ID: "w"}) }()
	const last = 1<<29 - 1
	cl.mu.Lock()
	cl.nextID = last
	cl.mu.Unlock()
	for _, want := range []JobID{last, last + 1, last + 2} {
		c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 71)
		id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1})
		if err != nil || id != want {
			t.Fatalf("submit as job %d = %d, %v, want admitted", want, id, err)
		}
		st := waitStatus(t, cl, id)
		if st.State != Done || !sameMatrix(c, matrix.Partition(ref, 4)) {
			t.Fatalf("job %d ended %v (%v), or not bit-exact", id, st.State, st.Err)
		}
		if tracked := id <= last; (st.Comm.BlocksSkipped > 0) != tracked {
			t.Fatalf("job %d served %d operand blocks from the cache, want hits only for a tracked job",
				id, st.Comm.BlocksSkipped)
		}
	}
	if log.appends < 3*(1+4+1) {
		t.Fatalf("%d records journaled, want every job's accept, chunks and done", log.appends)
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
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
		if task.Job == luID {
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
	if !sameMatrix(luRes, luReference(t, orig, q)) {
		t.Fatal("LU after snapshot recovery is not bit-identical to lu.Factor")
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

// TestTileRecordsGathered pins the journal's two tile-carrying records
// to the job's own blocks: a record is header bytes and views of the
// blocks, written straight from them, never a copy of its tiles. On a
// store-backed cluster, admitting one n = 512, q = 128 job (6 MiB of
// operands) and writing a chunk record for every block of its result
// allocates less than 1 MiB in all, and the journal holds the
// reference's bytes of each record.
func TestTileRecordsGathered(t *testing.T) {
	const n, q, mu = 512, 128, 2
	dir := t.TempDir()
	jn, log := openLog(t, dir)
	defer jn.Close()
	cl, _ := manualCluster(Config{Log: log})
	defer cl.Close()
	rng := rand.New(rand.NewSource(61))
	spec := JobSpec{Kind: MatMul, Mu: mu,
		C: randBlocked(rng, n/q, n/q, q), A: randBlocked(rng, n/q, n/q, q), B: randBlocked(rng, n/q, n/q, q)}
	var tasks []*Task
	for i0 := 0; i0 < n/q; i0 += mu {
		for j0 := 0; j0 < n/q; j0 += mu {
			tasks = append(tasks, &Task{Seq: len(tasks), Chunk: Chunk{i0, j0, mu, mu}})
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id, err := cl.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	for _, tk := range tasks {
		tk.Job = id
		cl.logChunkLocked(cl.jobs[id], tk)
	}
	cl.mu.Unlock()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("admitting a %d-byte job and journaling its chunks allocated %d bytes, want < 1 MiB",
			3*8*n*n, got)
	}

	want := [][]byte{refAccepted(id, 0, spec)}
	for _, tk := range tasks {
		want = append(want, refChunkRecord(tk, refChunk(tk, spec.C)))
	}
	var got [][]byte
	if _, err := store.ReplayDir(dir, func(rec []byte, _ bool) error {
		got = append(got, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("journal holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d (type %d) is not the reference's bytes", i, want[i][0])
		}
	}
}

// TestRecoverPreCutSnapshot pins compatibility with stores written
// before every job was cut at dispatch: a hand-built snapshot in that
// layout — a pre-cut matmul job and an LU job mid-stage, each with
// pending tasks, the stage's task count and no cutter — recovers, and
// both jobs finish bit-exact.
func TestRecoverPreCutSnapshot(t *testing.T) {
	// The matmul job: 4×4 blocks pre-cut at µ=2 in column-panel order,
	// seq 0 (0,0), 1 (2,0), 2 (0,2), 3 (2,2); seqs 0 and 2 committed.
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 81)
	refB := matrix.Partition(ref, 4)
	for _, at := range [][2]int{{0, 0}, {0, 2}} {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				copy(c.Block(at[0]+i, at[1]+j).Data, refB.Block(at[0]+i, at[1]+j).Data)
			}
		}
	}
	// The LU job: r = 4, µ=1. Panel 0 is factored and the stage's 3×3
	// trailing tiles were seqs 0–8 in row-major order; 0–3 committed.
	const q, r = 8, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 83)
	m := matrix.Partition(orig.Clone(), q)
	piv := m.Block(0, 0).Data
	blas.Getf2(piv, q, q)
	for i := 1; i < r; i++ {
		blas.TrsmUpperRight(q, q, piv, q, m.Block(i, 0).Data, q)
		blas.TrsmLowerLeft(q, q, piv, q, m.Block(0, i).Data, q)
	}
	for seq := 0; seq < 4; seq++ {
		i, j := 1+seq/3, 1+seq%3
		copy(m.Block(i, j).Data, trailingTileValue(m, i, j, 0))
	}

	e := &recEnc{}
	e.u32(2) // next job id
	e.u32(2) // jobs
	job := func(id JobID, kind JobKind, mu int, mats ...*matrix.Blocked) {
		e.u32(uint32(id))
		e.u64(uint64(100 + id)) // key
		e.u8(byte(kind))
		e.u8(byte(Running))
		e.u8(0) // not quarantined
		e.u32(uint32(mu))
		e.str("")
		for _, mt := range mats {
			e.mat(mt)
		}
	}
	task := func(seq, k, i0, j0, rows, cols, steps int) {
		for _, v := range []int{seq, k, i0, j0, rows, cols, steps} {
			e.u32(uint32(v))
		}
	}
	job(0, MatMul, 2, c, a, b)
	// nextSeq, total, done, requeues, stage, stage tasks left, luBlocks,
	// re-cuts, update depth (0: pre-cut jobs did not record one).
	for _, v := range []int{4, 4, 2, 0, 0, 0, 0, 0, 0} {
		e.u32(uint32(v))
	}
	e.u32(2)
	task(1, 0, 2, 0, 2, 2, 4)
	task(3, 0, 2, 2, 2, 2, 4)
	e.u8(0) // no cutter
	job(1, LU, 1, m)
	for _, v := range []int{9, 9, 4, 0, 0, 5, r, 0, 0} {
		e.u32(uint32(v))
	}
	e.u32(5)
	for seq := 4; seq < 9; seq++ {
		task(seq, 0, 1+seq/3, 1+seq%3, 1, 1, 1)
	}
	e.u8(0)  // no cutter
	e.u32(0) // no quarantined workers

	dir := t.TempDir()
	jn, _ := openLog(t, dir)
	if err := jn.CompactV(e.record()...); err != nil {
		t.Fatal(err)
	}
	jn.Close()
	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	cl, _ := manualCluster(Config{Log: logB})
	defer cl.Close()
	rs, err := cl.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Snapshots != 1 || rs.Resumed != 2 {
		t.Fatalf("RecoveryStats = %+v, want both jobs resumed from the snapshot", rs)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(cl, LocalWorkerConfig{ID: "w"}) }()
	for id := JobID(0); id < 2; id++ {
		if st := waitStatus(t, cl, id); st.State != Done {
			t.Fatalf("job %d after recovery = %+v", id, st)
		}
	}
	for id, want := range []*matrix.Blocked{refB, luReference(t, orig, q)} {
		res, err := cl.JobResult(JobID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrix(res, want) {
			t.Fatalf("job %d from the pre-cut snapshot is not bit-exact", id)
		}
	}
	cl.Close()
	<-done
}

// TestRecoverQueuedSnapshot pins compatibility with stores written by a
// master that capped the jobs it ran: a snapshot holding a matmul and an
// LU job it had admitted but not started — state byte 0, nothing cut,
// the LU job's first panel not factored — recovers, and both jobs run
// and finish bit-exact.
func TestRecoverQueuedSnapshot(t *testing.T) {
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 91)
	const q, r = 4, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 93)
	src, _ := manualCluster(Config{})
	src.mu.Lock()
	for id, spec := range []JobSpec{
		{Kind: MatMul, C: c, A: a, B: b, Mu: 2},
		{Kind: LU, M: matrix.Partition(orig.Clone(), q), Mu: 1},
	} {
		j := newJob(JobID(id), spec)
		j.state = 0 // admitted, not started
		src.jobs[j.id] = j
		src.order = append(src.order, j.id)
	}
	src.nextID = 2
	snap := refSnapshot(src)
	src.mu.Unlock()

	dir := t.TempDir()
	jn, _ := openLog(t, dir)
	if err := jn.Compact(snap); err != nil {
		t.Fatal(err)
	}
	jn.Close()
	jnB, logB := openLog(t, dir)
	defer jnB.Close()
	cl, _ := manualCluster(Config{Log: logB})
	defer cl.Close()
	rs, err := cl.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.Snapshots != 1 || rs.Resumed != 2 {
		t.Fatalf("RecoveryStats = %+v, want both jobs resumed from the snapshot", rs)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(cl, LocalWorkerConfig{ID: "w"}) }()
	for id, want := range []*matrix.Blocked{matrix.Partition(ref, q), luReference(t, orig, q)} {
		if st := waitStatus(t, cl, JobID(id)); st.State != Done {
			t.Fatalf("job %d after recovery = %+v", id, st)
		}
		res, err := cl.JobResult(JobID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrix(res, want) {
			t.Fatalf("job %d from the queued snapshot is not bit-exact", id)
		}
	}
	cl.Close()
	<-done
}

// TestRecoverRefusesBadStateByte: a snapshot job whose state byte is
// not 0 (admitted, not started), Running, Done or Failed, and a done
// record whose state is not Done or Failed, are refused with an error
// naming the job and the byte. Loaded, the first would be a job that
// never runs and whose Wait returns at once; the second would leave
// the job Running with its done channel closed, to be closed again by
// the next finish.
func TestRecoverRefusesBadStateByte(t *testing.T) {
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 91)
	snapshot := func(state JobState) []byte {
		src, _ := manualCluster(Config{})
		defer src.Close()
		src.mu.Lock()
		defer src.mu.Unlock()
		j := newJob(0, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
		j.state = state
		src.jobs[j.id] = j
		src.order = append(src.order, j.id)
		src.nextID = 1
		return refSnapshot(src)
	}
	done := func(state JobState) []byte {
		e := &refEnc{}
		e.u8(evDone)
		e.u32(0) // job id
		e.u8(byte(state))
		e.u8(0) // not quarantined
		e.str("")
		return e.buf
	}
	for _, tc := range []struct {
		name string
		snap []byte
		done []byte // appended after the snapshot when set
		want string // the refusal; "" recovers
	}{
		{"snapshot byte 4", snapshot(4), nil, "snapshot job 0: state byte 4"},
		{"done byte 1", snapshot(Running), done(Running), "done record for job 0: state byte 1"},
		{"done byte 4", snapshot(Running), done(4), "done record for job 0: state byte 4"},
		{"done byte 2", snapshot(Running), done(Done), ""},
	} {
		dir := t.TempDir()
		jn, log := openLog(t, dir)
		if err := jn.Compact(tc.snap); err != nil {
			t.Fatal(err)
		}
		if tc.done != nil {
			if err := jn.Append(tc.done); err != nil {
				t.Fatal(err)
			}
		}
		cl, _ := manualCluster(Config{Log: log})
		_, err := cl.Recover()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Recover = %v, want recovered", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Recover = %v, want an error containing %q", tc.name, err, tc.want)
		}
		cl.Close()
		jn.Close()
	}
}

// TestRecoverRefusesBadFreeList: a v1 snapshot whose free list no run
// of cuts and frees can leave — overlapping rectangles, a rectangle past
// the grid — is refused before anything is cut from it, while the same
// record with a sound list recovers.
func TestRecoverRefusesBadFreeList(t *testing.T) {
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 91) // 2×2 blocks
	for _, tc := range []struct {
		name  string
		rects [][4]int
		ok    bool
	}{
		{"sound", [][4]int{{0, 0, 1, 2}, {1, 0, 1, 2}}, true},
		{"overlapping", [][4]int{{0, 0, 2, 2}, {1, 1, 1, 1}}, false},
		{"outside the grid", [][4]int{{1, 1, 2, 1}}, false},
	} {
		e := &recEnc{}
		e.u32(snapshotV1)
		e.u32(1) // next job id
		e.u32(1) // jobs
		e.u32(0)
		e.u64(7) // key
		e.u8(byte(MatMul))
		e.u8(byte(Running))
		e.u8(0) // not quarantined
		e.u32(2)
		e.str("")
		e.mats(&JobSpec{Kind: MatMul, C: c, A: a, B: b})
		for _, v := range []int{0, 0, 0, 0} { // nextSeq, done, requeues, stage
			e.u32(uint32(v))
		}
		e.u32(uint32(len(tc.rects)))
		for _, r := range tc.rects {
			for _, v := range r {
				e.u32(uint32(v))
			}
		}
		e.u32(0) // no quarantined workers
		dir := t.TempDir()
		jn, log := openLog(t, dir)
		if err := jn.CompactV(e.record()...); err != nil {
			t.Fatal(err)
		}
		cl, _ := manualCluster(Config{Log: log})
		_, err := cl.Recover()
		if (err == nil) != tc.ok {
			t.Errorf("%s free list %v: Recover = %v", tc.name, tc.rects, err)
		}
		cl.Close()
		jn.Close()
	}
}

// TestRecoverV0DuplicateSeq: a v0-layout snapshot taken while a
// speculative duplicate was in flight lists the seq twice. The
// converter frees its region once, and the recovered job commits every
// block once and ends bit-exact.
func TestRecoverV0DuplicateSeq(t *testing.T) {
	cl, _ := adaptiveCluster(AdaptiveConfig{SpeculationFactor: 1.5})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 93) // 2×2 blocks, T = 2
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow := join(t, cl, "slow", 64, 1)
	slow.ObserveCompute(engine.AssignID{}, 40, int64(time.Second)) // µ = √(40/2) ≥ 2: the whole grid
	orig := pullTask(t, slow)
	fast := join(t, cl, "fast", 64, 1)
	fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
	if dup := pullTask(t, fast); dup.Seq != orig.Seq {
		t.Fatalf("fast worker got seq %d, want a duplicate of %d", dup.Seq, orig.Seq)
	}
	cl.mu.Lock()
	listed := len(uncommittedTasks(cl, cl.jobs[id]))
	snap := refSnapshotV0(cl)
	cl.mu.Unlock()
	if listed != 2 {
		t.Fatalf("the v0 layout lists %d tasks, want the seq twice", listed)
	}

	dir := t.TempDir()
	jn, log := openLog(t, dir)
	defer jn.Close()
	if err := jn.Compact(snap); err != nil {
		t.Fatal(err)
	}
	rc, _ := manualCluster(Config{Log: log})
	defer rc.Close()
	if _, err := rc.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- RunLocalWorker(rc, LocalWorkerConfig{ID: "w"}) }()
	if st := waitStatus(t, rc, id); st.State != Done {
		t.Fatalf("job after recovery = %+v", st)
	}
	res, err := rc.JobResult(id)
	if err != nil || !res.Assemble().Equal(ref, 0) {
		t.Fatalf("job from the v0 snapshot is not bit-exact (%v)", err)
	}
	if chunks := assertNoDuplicateCommits(t, dir); len(chunks) == 0 {
		t.Fatal("no chunk committed after recovery")
	}
	rc.Close()
	<-done
}
