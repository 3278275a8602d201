package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/matrix"
	"repro/internal/sim"
)

// oneJobInputs builds deterministic A, B, C and the oracle C + A·B.
func oneJobInputs(r, tt, s, q int, seed int64) (a, b, c *matrix.Blocked, want *matrix.Dense) {
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, seed)
	matrix.DeterministicFill(bd, seed+1)
	matrix.DeterministicFill(cd, seed+2)
	want = cd.Clone()
	matrix.MulNaive(want, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q), matrix.Partition(cd, q), want
}

// TestDemandCorrectness runs single products demand-driven on one-job
// clusters of in-process workers — one or many workers, ragged chunk
// grids, more workers than chunks, a chunk wider than C, sharded kernels
// — and pins each against the oracle bit for bit, with every task
// performed by exactly one worker and every C tile flushed once.
func TestDemandCorrectness(t *testing.T) {
	for _, tc := range []struct{ r, tt, s, q, workers, mu, cores, mem int }{
		{4, 4, 4, 8, 1, 2, 1, 0},
		{4, 4, 4, 8, 3, 2, 2, 0},
		{7, 3, 5, 4, 4, 2, 4, 0},  // ragged chunks, sharded kernel
		{6, 6, 6, 4, 2, 3, 0, 21}, // memory just holds a 3×3 chunk
		{2, 2, 2, 8, 4, 1, 3, 0},  // more workers than chunks
		{8, 5, 8, 4, 2, 8, 2, 0},  // chunk bigger than C
	} {
		a, b, c, want := oneJobInputs(tc.r, tc.tt, tc.s, tc.q, 1)
		st, workers, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: tc.mu},
			tc.workers, LocalWorkerConfig{ID: "w", Mem: tc.mem, Cores: tc.cores})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !c.Assemble().Equal(want, 0) {
			t.Fatalf("%+v: product not bit-exact", tc)
		}
		if len(workers) != tc.workers {
			t.Fatalf("%+v: %d workers registered, want %d", tc, len(workers), tc.workers)
		}
		done := 0
		for _, w := range workers {
			done += w.Done
		}
		if done != st.TasksTotal || st.TasksDone != st.TasksTotal {
			t.Fatalf("%+v: workers did %d tasks, job counts %d of %d", tc, done, st.TasksDone, st.TasksTotal)
		}
		if st.Comm.BlocksShipped == 0 || st.Comm.CUp != int64(tc.r*tc.s) {
			t.Fatalf("%+v: comm %+v, want every C tile flushed once", tc, st.Comm)
		}
	}
}

// TestOperandsUntouched: a one-job run reads A and B by reference and
// must leave them bit for bit as they were.
func TestOperandsUntouched(t *testing.T) {
	a, b, c, _ := oneJobInputs(4, 4, 4, 8, 1)
	asum, bsum := a.Assemble().Checksum(), b.Assemble().Checksum()
	if _, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}, 2, LocalWorkerConfig{ID: "w", Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if a.Assemble().Checksum() != asum || b.Assemble().Checksum() != bsum {
		t.Fatal("input operands were modified")
	}
}

func TestRunOneJobErrors(t *testing.T) {
	a, b, c, _ := oneJobInputs(4, 4, 4, 8, 1)
	if _, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1}, 0, LocalWorkerConfig{}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 0}, 1, LocalWorkerConfig{}); err == nil {
		t.Fatal("µ=0 accepted")
	}
	bad := matrix.NewBlocked(3, 4, 8)
	if _, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: bad, B: b, Mu: 1}, 1, LocalWorkerConfig{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// A chunk no worker's memory holds fails the job instead of hanging.
	if _, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}, 1, LocalWorkerConfig{Mem: 3}); err == nil {
		t.Fatal("a job no worker can hold reported success")
	}
}

// Property: a one-job cluster computes the oracle's product exactly for
// random shapes, worker counts and µ.
func TestQuickRunOneJob(t *testing.T) {
	f := func(rRaw, sRaw, tRaw, wRaw, muRaw uint8) bool {
		r, s, tt := int(rRaw%5)+1, int(sRaw%5)+1, int(tRaw%4)+1
		a, b, c, want := oneJobInputs(r, tt, s, 4, int64(rRaw)+int64(sRaw)<<8)
		_, _, err := RunOneJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: int(muRaw%3) + 1},
			int(wRaw%3)+1, LocalWorkerConfig{ID: "w"})
		return err == nil && c.Assemble().Equal(want, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPickChunkLocality pins the dispatch tour: the nearest chunk in
// the same block-row as the worker's previous one first, then the
// nearest in the same block-column, else the chunk at minimum
// Manhattan distance; with no previous chunk, the first eligible one.
// Chunks cooling down under the retry backoff are never picked.
func TestPickChunkLocality(t *testing.T) {
	cl := New(Config{})
	now := time.Unix(100, 0)
	mk := func(i0, j0 int) *Task { return &Task{Chunk: &sim.Chunk{I0: i0, J0: j0}} }
	j := &job{pending: []*Task{mk(2, 0), mk(4, 0), mk(0, 2), mk(0, 0)}}
	w := &workerState{}
	pick := func(last ...int) int {
		w.lastAt = nil
		if len(last) == 2 {
			w.lastAt = map[JobID][2]int{j.id: {last[0], last[1]}}
		}
		return cl.localPickLocked(j, w, now)
	}
	if got := pick(); got != 0 {
		t.Fatalf("cold pick = %d, want head", got)
	}
	if got := pick(0, 4); got != 2 {
		t.Fatalf("same-row pick = %d, want 2", got)
	}
	if got := pick(6, 2); got != 2 {
		t.Fatalf("same-col pick = %d, want 2 (J0 match)", got)
	}
	// No row/column affinity anywhere: nearest by Manhattan distance.
	// |Δ| from (6,6): idx0 = 4+6, idx1 = 2+6, idx2 = 6+4, idx3 = 6+6.
	if got := pick(6, 6); got != 1 {
		t.Fatalf("no-affinity pick = %d, want 1 (nearest Manhattan)", got)
	}
	// From (2,9) idx0 (2,0) is the only same-row chunk and must win over
	// the closer-by-distance column matches.
	if got := pick(2, 9); got != 0 {
		t.Fatalf("row-over-distance pick = %d, want 0", got)
	}
	j.pending[0].notBefore = now.Add(time.Second)
	if got := pick(); got != 1 {
		t.Fatalf("cold pick with the head cooling down = %d, want 1", got)
	}
	if got := pick(2, 9); got != 2 {
		t.Fatalf("same-row chunk cooling down: pick = %d, want 2 (nearest Manhattan)", got)
	}
}
