package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// honestTask computes a task's candidate tiles exactly as an honest
// worker would: the master C tile continued with the ascending-k FMA
// chain over the job's operand panels.
func honestTask(c, a, b *matrix.Blocked, tk *Task, q int) [][]float64 {
	ch := tk.Chunk
	out := make([][]float64, 0, ch.Rows*ch.Cols)
	for i := 0; i < ch.Rows; i++ {
		for jj := 0; jj < ch.Cols; jj++ {
			bi, bj := ch.I0+i, ch.J0+jj
			av := make([][]float64, tk.Steps)
			bv := make([][]float64, tk.Steps)
			for k := 0; k < tk.Steps; k++ {
				av[k] = a.Block(bi, k).Data
				bv[k] = b.Block(k, bj).Data
			}
			blk := make([]float64, q*q)
			blas.RecomputeTile(blk, c.Block(bi, bj).Data, av, bv, q)
			out = append(out, blk)
		}
	}
	return out
}

// honestLUTask computes an LU task's candidate tiles as an honest
// worker would: the master's trailing tiles updated by the stage's
// negated L panel and U row.
func honestLUTask(m *matrix.Blocked, tk *Task) [][]float64 {
	ch := tk.Chunk
	out := make([][]float64, 0, ch.Rows*ch.Cols)
	for i := 0; i < ch.Rows; i++ {
		for jj := 0; jj < ch.Cols; jj++ {
			out = append(out, trailingTileValue(m, ch.I0+i, ch.J0+jj, tk.K))
		}
	}
	return out
}

// flipBit62 corrupts one element the way a flaky FPU or DIMM would: a
// high-exponent bit flip that the wire CRC can no longer see because it
// happened before (or after) framing.
func flipBit62(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << 62))
}

// TestVerifyAllHonestJob runs a whole job under VerifyAll with honest
// local workers: every tile is checked, none fail, nobody is struck,
// and the result stays bit-exact with the unverified path.
func TestVerifyAllHonestJob(t *testing.T) {
	cl, _ := manualCluster(Config{Verify: VerifyPolicy{Mode: VerifyAll}})
	defer cl.Close()
	for _, id := range []string{"w1", "w2"} {
		go RunLocalWorker(cl, LocalWorkerConfig{ID: id, Mem: 64})
	}
	c, a, b, ref := blockedInputs(t, 24, 16, 32, 4, 41)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
	st := cl.ClusterStats()
	if st.VerifyChecks == 0 {
		t.Fatal("VerifyAll ran no checks")
	}
	if st.VerifyFailures != 0 || st.TilesRecomputed != 0 {
		t.Fatalf("honest job: %d failures, %d recomputes, want 0/0",
			st.VerifyFailures, st.TilesRecomputed)
	}
	if st.WorkersQuarantined != 0 {
		t.Fatalf("honest job quarantined %d workers", st.WorkersQuarantined)
	}
	for _, w := range cl.Workers() {
		if w.Strikes != 0 || w.Quarantined {
			t.Fatalf("honest worker %q: strikes=%d quarantined=%v", w.ID, w.Strikes, w.Quarantined)
		}
	}
}

// TestVerifyLUHonestJob pins the LU verification arithmetic (the probe
// runs over the stage's negated L panel, the operand the worker got):
// an honest LU job under VerifyAll must finish with zero failures and
// zero escalations.
func TestVerifyLUHonestJob(t *testing.T) {
	cl, _ := manualCluster(Config{Verify: VerifyPolicy{Mode: VerifyAll}})
	defer cl.Close()
	for _, id := range []string{"w1", "w2"} {
		go RunLocalWorker(cl, LocalWorkerConfig{ID: id, Mem: 64})
	}
	const q, r = 8, 5
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 7)
	m := matrix.Partition(orig.Clone(), q)
	id, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	st := cl.ClusterStats()
	if st.VerifyChecks == 0 {
		t.Fatal("VerifyAll ran no checks on the LU job")
	}
	if st.VerifyFailures != 0 || st.TilesRecomputed != 0 {
		t.Fatalf("honest LU job: %d failures, %d recomputes, want 0/0",
			st.VerifyFailures, st.TilesRecomputed)
	}
}

// TestVerifyCorruptLUTileRefused: an LU trailing tile is checked by
// the same amortized probe as a product tile, against the stage's
// negated L panel and U row. A corrupt element anywhere in the tile —
// a flipped exponent bit, an Inf or a NaN — refuses the task before
// anything commits and strikes the worker, and the requeued task then
// finishes the factorization bit-exact against lu.Factor.
func TestVerifyCorruptLUTileRefused(t *testing.T) {
	const q, r = 8, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 45)
	want := luReference(t, orig, q)
	for _, tc := range []struct {
		name    string
		corrupt func(tile []float64)
	}{
		{"bit62-first", func(tile []float64) { tile[0] = flipBit62(tile[0]) }},
		{"bit62-diagonal", func(tile []float64) { tile[3*q+3] = flipBit62(tile[3*q+3]) }},
		{"bit62-offdiagonal", func(tile []float64) { tile[2*q+5] = flipBit62(tile[2*q+5]) }},
		{"bit62-last", func(tile []float64) { tile[q*q-1] = flipBit62(tile[q*q-1]) }},
		{"inf", func(tile []float64) { tile[q+1] = math.Inf(1) }},
		{"nan", func(tile []float64) { tile[q+1] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, _ := manualCluster(Config{
				MaxAttempts: 10,
				Verify:      VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: 3},
			})
			defer cl.Close()
			m := matrix.Partition(orig.Clone(), q)
			id, err := cl.SubmitJob(JobSpec{Kind: LU, M: m, Mu: 2})
			if err != nil {
				t.Fatal(err)
			}
			before := m.Clone()
			evil := join(t, cl, "evil", 64, 1)
			tk := pullTask(t, evil)
			blocks := honestLUTask(m, tk)
			tc.corrupt(blocks[len(blocks)-1])
			if err := complete(evil, tk, blocks); err != nil {
				t.Fatalf("corrupted completion returned %v, want silent refusal", err)
			}
			st := cl.ClusterStats()
			if st.VerifyFailures != 1 || st.FlushedBlocks != 0 {
				t.Fatalf("failures/flushed = %d/%d, want 1/0", st.VerifyFailures, st.FlushedBlocks)
			}
			if wi := snapshotWorker(t, cl, "evil"); wi.Strikes != 1 {
				t.Fatalf("evil worker strikes = %d, want 1", wi.Strikes)
			}
			if !sameMatrix(m, before) {
				t.Fatal("master matrix changed under a refused task")
			}
			evil.Lost()
			go RunLocalWorker(cl, LocalWorkerConfig{ID: "honest", Mem: 64})
			if st := waitStatus(t, cl, id); st.State != Done {
				t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
			}
			if !sameMatrix(m, want) {
				t.Fatal("LU after the refusal is not bit-identical to lu.Factor")
			}
		})
	}
}

// TestVerifyCorruptCompleteQuarantine drives a corrupt worker through
// ack and flush by hand: each corrupted task is refused
// (never committed), requeued, and struck; at the threshold the worker
// is quarantined, refused further work and refused re-registration —
// and an honest worker then finishes the job bit-exact.
func TestVerifyCorruptCompleteQuarantine(t *testing.T) {
	const strikes = 2
	cl, _ := manualCluster(Config{
		MaxAttempts: 10,
		Verify:      VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: strikes},
	})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 42)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	evil := join(t, cl, "evil", 64, 1)
	for s := 1; s <= strikes; s++ {
		tk := pullTask(t, evil)
		blocks := honestTask(c, a, b, tk, 4)
		blocks[0][3] = flipBit62(blocks[0][3])
		if err := complete(evil, tk, blocks); err != nil {
			t.Fatalf("strike %d: corrupted completion returned %v, want silent refusal", s, err)
		}
	}
	st := cl.ClusterStats()
	if st.VerifyFailures != strikes {
		t.Fatalf("VerifyFailures = %d, want %d", st.VerifyFailures, strikes)
	}
	if st.TilesRecomputed != strikes {
		t.Fatalf("TilesRecomputed = %d, want %d (one escalation per corrupt tile)",
			st.TilesRecomputed, strikes)
	}
	if st.WorkersQuarantined != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	if st.Requeues != strikes {
		t.Fatalf("Requeues = %d, want %d (each refused task requeued)", st.Requeues, strikes)
	}
	if _, err := evil.Next(); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("Next after quarantine = %v, want ErrWorkerQuarantined", err)
	}
	if _, err := cl.JoinWorker("evil", 64, 1); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("rejoin after quarantine = %v, want ErrWorkerQuarantined", err)
	}
	found := false
	for _, w := range cl.Workers() {
		if w.ID != "evil" {
			continue
		}
		found = true
		if w.Strikes != strikes || !w.Quarantined || !w.Dead {
			t.Fatalf("evil worker snapshot = strikes %d quarantined %v dead %v, want %d/true/true",
				w.Strikes, w.Quarantined, w.Dead, strikes)
		}
	}
	if !found {
		t.Fatal("quarantined worker missing from the registry snapshot")
	}
	qs := cl.QuarantinedWorkers()
	if len(qs) != 1 || qs[0].ID != "evil" || qs[0].Strikes != strikes || qs[0].Reason == "" {
		t.Fatalf("QuarantinedWorkers = %+v", qs)
	}

	go RunLocalWorker(cl, LocalWorkerConfig{ID: "honest", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g (corrupt tile leaked into the commit)",
					i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
}

// TestVerifyCorruptFlushRefused covers the resident-result path: a
// corrupted tile inside a flush manifest refuses the whole owning task
// before anything commits (per-task commits are atomic), requeues it,
// and strikes the worker; the master matrix is untouched.
func TestVerifyCorruptFlushRefused(t *testing.T) {
	cl, _ := manualCluster(Config{
		MaxAttempts: 10,
		Verify:      VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: 3},
	})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 8, 8, 8, 4, 43)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Assemble()
	evil := join(t, cl, "evil", 64, 2)
	tk := pullTask(t, evil)
	if err := evil.Acked(tk.key()); err != nil {
		t.Fatal(err)
	}
	ch := tk.Chunk
	blocks := honestTask(c, a, b, tk, 4)
	blocks[len(blocks)-1][0] = flipBit62(blocks[len(blocks)-1][0])
	var ids []uint64
	for i := 0; i < ch.Rows; i++ {
		for jj := 0; jj < ch.Cols; jj++ {
			ids = append(ids, engine.CBlockID(uint32(tk.Job), ch.I0+i, ch.J0+jj))
		}
	}
	if err := evil.CommitFlush(ids, blocks); err != nil {
		t.Fatalf("corrupted flush returned %v, want silent refusal", err)
	}
	st := cl.ClusterStats()
	if st.VerifyFailures != 1 || st.FlushedBlocks != 0 {
		t.Fatalf("failures/flushed = %d/%d, want 1/0 (nothing committed)",
			st.VerifyFailures, st.FlushedBlocks)
	}
	if st.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", st.Requeues)
	}
	after := c.Assemble()
	if d := after.MaxDiff(before); d != 0 {
		t.Fatalf("master C changed by %g under a refused flush", d)
	}
	for _, w := range cl.Workers() {
		if w.ID == "evil" && (w.Strikes != 1 || w.DirtyBlocks != 0) {
			t.Fatalf("evil worker = strikes %d dirty %d, want 1/0", w.Strikes, w.DirtyBlocks)
		}
	}

	evil.Lost()
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "honest", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g", i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
}

// TestTransportFaultTakesNoStrike pins the fault taxonomy: a session
// that ends on a wire-CRC fault is counted against its worker but takes
// no strike — the transport owns the fault, not the worker's compute —
// and the count stays with the worker across the reconnect, which is
// served like any other.
func TestTransportFaultTakesNoStrike(t *testing.T) {
	cl, _ := manualCluster(Config{
		MaxAttempts: 10,
		Verify:      VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: 1},
	})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 16, 16, 16, 4, 44)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	w := join(t, cl, "w", 64, 1)
	pullTask(t, w)
	w.Close(SessionReport{TransportFault: true})
	st := cl.ClusterStats()
	if st.TransportFaults != 1 || st.WorkersQuarantined != 0 || st.Requeues != 1 {
		t.Fatalf("transport fault: faults=%d quarantined=%d requeues=%d, want 1/0/1",
			st.TransportFaults, st.WorkersQuarantined, st.Requeues)
	}
	if wi := snapshotWorker(t, cl, "w"); wi.Strikes != 0 || wi.TransportFaults != 1 {
		t.Fatalf("worker after transport fault = %+v, want 0 strikes, 1 fault", wi)
	}
	// The reconnect keeps the count and is served: an honest result is
	// verified and committed.
	w = join(t, cl, "w", 64, 1)
	tk := pullTask(t, w)
	if err := complete(w, tk, honestTask(c, a, b, tk, 4)); err != nil {
		t.Fatal(err)
	}
	if st := cl.ClusterStats(); st.VerifyChecks == 0 || st.VerifyFailures != 0 || st.FlushedBlocks != int64(tk.Rows*tk.Cols) {
		t.Fatalf("after reconnect: checks=%d failures=%d flushed=%d, want >0/0/%d",
			st.VerifyChecks, st.VerifyFailures, st.FlushedBlocks, tk.Rows*tk.Cols)
	}
	if wi := snapshotWorker(t, cl, "w"); wi.Strikes != 0 || wi.TransportFaults != 1 || wi.Sessions != 2 {
		t.Fatalf("worker after reconnect = %+v, want 0 strikes, 1 fault, 2 sessions", wi)
	}
}

// TestQuarantineSurvivesRestart journals a quarantine, replays the
// journal into a fresh cluster, and requires the worker to stay refused
// — both from the event tail and from a compacted snapshot.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	jnA, logA := openLog(t, dir)
	clA, _ := manualCluster(Config{
		MaxAttempts: 10,
		Log:         logA,
		Verify:      VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: 1},
	})
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 45)
	if _, err := clA.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	evil := join(t, clA, "evil", 64, 1)
	tk := pullTask(t, evil)
	blocks := honestTask(c, a, b, tk, 4)
	blocks[0][0] = flipBit62(blocks[0][0])
	if err := complete(evil, tk, blocks); err != nil {
		t.Fatal(err)
	}
	if st := clA.ClusterStats(); st.WorkersQuarantined != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	// "Crash": abandon clA without Close so no terminal events land.
	if err := jnA.Close(); err != nil {
		t.Fatal(err)
	}

	jnB, logB := openLog(t, dir)
	clB, _ := manualCluster(Config{Log: logB})
	if _, err := clB.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := clB.JoinWorker("evil", 64, 1); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("rejoin after restart = %v, want ErrWorkerQuarantined", err)
	}
	if st := clB.ClusterStats(); st.WorkersQuarantined != 1 {
		t.Fatalf("recovered WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	// Compact: the verdict must live in the snapshot, not just the tail.
	if err := clB.CompactLog(); err != nil {
		t.Fatal(err)
	}
	if err := jnB.Close(); err != nil {
		t.Fatal(err)
	}
	_, logC := openLog(t, dir)
	clC, _ := manualCluster(Config{Log: logC})
	if _, err := clC.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := clC.JoinWorker("evil", 64, 1); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("rejoin after compaction = %v, want ErrWorkerQuarantined", err)
	}
	if qs := clC.QuarantinedWorkers(); len(qs) != 1 || qs[0].ID != "evil" {
		t.Fatalf("QuarantinedWorkers after compaction = %+v", qs)
	}
}
