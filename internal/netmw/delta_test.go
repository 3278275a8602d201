package netmw

import (
	"testing"
	"time"
)

// TestClusterKillWorkerWithWarmCache is the delta protocol's recovery
// scenario: a lone worker serves several tasks of one job — warming its
// resident operand cache (the locality-aware dispatcher hands it chunks
// sharing A rows, so later sets arrive as deltas) — then vanishes
// mid-job. The reconnecting incarnation is a new session on both ends:
// the server's mirror and the worker's cache start empty, so the first
// sets of the new session ship full payloads, and the job must still
// finish bit-exactly equal to the matrix.MulNaive oracle.
func TestClusterKillWorkerWithWarmCache(t *testing.T) {
	cl, srv := startCluster(t)
	addr := srv.Addr()

	// 4 block-rows/cols at µ=2 → 4 chunks; t=8 update sets per chunk
	// gives the cache plenty to reuse across same-row chunks.
	c, a, b, ref := matmulInputs(t, 16, 32, 16, 4, 77)

	done := make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(addr, c, a, b, 2, time.Minute) }()
	waitCond(t, cl, "the job to arrive", jobsArrived(cl, 1))

	// The worker completes two tasks (cache warm by the second), is
	// killed when the third arrives, and reconnects under the same name.
	repCh := make(chan ClusterWorkerReport, 1)
	go func() {
		rep, _ := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "phoenix-warm", Memory: 64,
			failAfterTasks: 2,
			Reconnect:      5, Backoff: 5 * time.Millisecond,
		})
		repCh <- rep
	}()

	if err := <-done; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	// Bit-exact, not approximately: every C element is the same
	// ascending-k accumulation chain whichever incarnation computed it.
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g (not bit-exact after recovery)",
					i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}

	st := cl.ClusterStats()
	if st.WorkersLost < 1 || st.Requeues < 1 {
		t.Fatalf("lost=%d requeues=%d, want ≥ 1 each (the kill must have been mid-job)",
			st.WorkersLost, st.Requeues)
	}
	// The result path is resident end to end: every C tile that landed in
	// the master came through a flush commit, and a finished job leaves no
	// tile stranded dirty on any incarnation.
	if st.FlushedBlocks == 0 {
		t.Fatal("no flushed blocks recorded; results did not travel the resident path")
	}
	if st.DirtyBlocks != 0 {
		t.Fatalf("fleet dirty blocks = %d after completion, want 0", st.DirtyBlocks)
	}

	// Shut down cleanly and inspect the worker's lifetime report: the
	// warm first session must have produced cache hits, and the
	// reconnect must have happened.
	cl.Close()
	srv.Close()
	rep := <-repCh
	if rep.Sessions < 2 {
		t.Fatalf("sessions = %d, want ≥ 2 (kill + reconnect)", rep.Sessions)
	}
	if rep.CacheHits == 0 {
		t.Fatal("worker reported no cache hits; the resident cache never warmed")
	}

	// The per-job accounting must have the same story: blocks of job 0
	// were skipped, and shipped+skipped covers every operand the job's
	// completed sets referenced.
	js, err := cl.JobStatus(0)
	if err != nil {
		t.Fatal(err)
	}
	if js.Comm.BlocksSkipped == 0 || js.Comm.BlocksShipped == 0 {
		t.Fatalf("job comm accounting empty: %+v", js.Comm)
	}

	// The server-side lifetime totals (carried across the reconnect)
	// must agree that blocks were skipped.
	for _, wi := range cl.Workers() {
		if wi.ID != "phoenix-warm" {
			continue
		}
		if wi.BlocksSkipped == 0 {
			t.Fatal("server recorded no skipped blocks for the warm worker")
		}
		if wi.BlocksSkipped != rep.CacheHits {
			t.Fatalf("server skipped %d blocks, worker resolved %d hits — mirrors disagree",
				wi.BlocksSkipped, rep.CacheHits)
		}
		return
	}
	t.Fatal("worker missing from the registry snapshot")
}

// TestClusterDeltaSavesBytesMultiWorker runs two workers against one
// job and checks the end-to-end accounting: both sessions' skips land
// in the registry, and the job stays exact. (The per-worker mirrors are
// independent — a block resident on one worker still ships to the
// other.)
func TestClusterDeltaSavesBytesMultiWorker(t *testing.T) {
	cl, srv := startCluster(t)
	addr := srv.Addr()
	c, a, b, ref := matmulInputs(t, 16, 32, 16, 4, 99)

	for _, name := range []string{"dw1", "dw2"} {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: 128, Slots: 2, StageCap: 2,
			HeartbeatEvery: 50 * time.Millisecond,
		})
	}
	if err := SubmitMatMulTCP(addr, c, a, b, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) not bit-exact", i, j)
			}
		}
	}
	cl.Close()
	srv.Close()
	var skipped int64
	for _, wi := range cl.Workers() {
		skipped += wi.BlocksSkipped
	}
	if skipped == 0 {
		t.Fatal("no blocks skipped across the fleet on a reuse-heavy job")
	}
}
