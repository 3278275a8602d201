package netmw

import (
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
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
	// the master came home in a worker's Result.
	if st.FlushedBlocks == 0 {
		t.Fatal("no committed blocks recorded; results did not travel the resident path")
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

// tightWorker serves a cluster as the paper's limited-memory worker: 16
// blocks advertised with two tasks in flight, which leaves the operand
// cache 6 to 11 blocks beside the one or two 1×1 chunk footprints. run
// submits the job; tightWorker then shuts the cluster down
// and returns the worker's share of operand blocks served from its
// cache, after checking that the worker's hits are exactly the blocks
// the server's mirror skipped.
func tightWorker(t *testing.T, run func(addr string) error) float64 {
	t.Helper()
	cl, srv := startCluster(t)
	repCh := make(chan ClusterWorkerReport, 1)
	go func() {
		rep, _ := RunClusterWorker(ClusterWorkerConfig{
			Addr: srv.Addr(), Name: "tight", Memory: 16, Slots: 2,
		})
		repCh <- rep
	}()
	if err := run(srv.Addr()); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	cl.Close()
	srv.Close()
	rep := <-repCh
	for _, wi := range cl.Workers() {
		if wi.ID != "tight" {
			continue
		}
		if wi.BlocksSkipped != rep.CacheHits {
			t.Fatalf("server skipped %d blocks, worker resolved %d hits — mirrors disagree",
				wi.BlocksSkipped, rep.CacheHits)
		}
		return wi.CacheHitRate()
	}
	t.Fatal("worker missing from the registry snapshot")
	return 0
}

// TestTightMemoryKeepsRow is the limited-memory regime end to end: n/q =
// 8 at µ = 1, so every chunk reads 16 distinct blocks against a 6–11
// block cache. The tour hands the worker the next chunk of its
// block-row, and the victim rule keeps that row's first A blocks for it:
// at least a quarter of the operand blocks come from the cache (plain
// LRU served none), and C is bit-exact against the MulNaive oracle.
func TestTightMemoryKeepsRow(t *testing.T) {
	c, a, b, ref := matmulInputs(t, 32, 32, 32, 4, 41)
	share := tightWorker(t, func(addr string) error {
		return SubmitMatMulTCP(addr, c, a, b, 1, time.Minute)
	})
	got := c.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != ref.At(i, j) {
				t.Fatalf("C(%d,%d) = %g, oracle %g (not bit-exact)", i, j, got.At(i, j), ref.At(i, j))
			}
		}
	}
	if share < 0.25 {
		t.Fatalf("cache hit share %.3f, want ≥ 0.25 (the row's A blocks were evicted before reuse)", share)
	}
}

// TestTightMemoryLU runs an LU job on the same tight worker: stage
// panels go out under A- and B-role IDs through the same victim rule,
// and the factorization must still be lu.Factor's, bit for bit.
func TestTightMemoryLU(t *testing.T) {
	orig := matrix.NewDense(32, 32)
	lu.DiagonallyDominant(orig, 43)
	m := matrix.Partition(orig.Clone(), 4)
	tightWorker(t, func(addr string) error { return luSubmission(m, 1, 0).roundTrip(addr, time.Minute) })
	if !bitEqual(m, luFactored(t, orig, 4)) {
		t.Fatal("lu at tight memory is not bit-identical to lu.Factor")
	}
}

// commTap counts, on the master's side of every worker session, the
// traffic a job's tasks carry: operand blocks shipped and skipped in
// the Sets sent, C payloads in the Tasks sent and tile blocks in the
// Results received.
type commTap struct {
	engine.Transport
	mu  *sync.Mutex
	sum *engine.CommStats
}

func (c commTap) Send(m engine.Msg) error {
	c.mu.Lock()
	switch m := m.(type) {
	case *engine.Assign:
		c.sum.CDown += int64(len(m.Blocks))
	case *engine.Set:
		for _, half := range [][][]float64{m.A, m.B} {
			for _, blk := range half {
				if blk == nil {
					c.sum.BlocksSkipped++
				} else {
					c.sum.BlocksShipped++
				}
			}
		}
	}
	c.mu.Unlock()
	return c.Transport.Send(m)
}

func (c commTap) Recv() (engine.Msg, error) {
	m, err := c.Transport.Recv()
	if res, ok := m.(*engine.Result); ok {
		c.mu.Lock()
		c.sum.CUp += int64(len(res.Blocks))
		c.mu.Unlock()
	}
	return m, err
}

// TestJobCommCountsAtCommit: a finished job's Status.Comm counts every
// task's traffic by the time the job is done — with both of its workers
// still connected, not only once their sessions close: shipped and
// skipped operand blocks and the C blocks down and up equal what went
// over the wire for it.
func TestJobCommCountsAtCommit(t *testing.T) {
	var mu sync.Mutex
	var wire engine.CommStats
	cl, srv := startClusterWith(t, ClusterServerConfig{
		WrapTransport: func(_ string, tr engine.Transport) engine.Transport {
			return commTap{Transport: tr, mu: &mu, sum: &wire}
		},
	})
	for _, name := range []string{"w1", "w2"} {
		go RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: name, Memory: 64, Slots: 2})
	}
	waitCond(t, cl, "both workers", func() bool { return len(cl.Workers()) == 2 })
	c, a, b, ref := matmulInputs(t, 16, 32, 16, 4, 78)
	if err := SubmitMatMulTCP(srv.Addr(), c, a, b, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result differs by %g", d)
	}
	if alive := cl.ClusterStats().WorkersAlive; alive != 2 {
		t.Fatalf("%d workers connected, want both", alive)
	}
	got := cl.Jobs()[0].Comm
	mu.Lock()
	want := wire
	mu.Unlock()
	if got.BlocksShipped != want.BlocksShipped || got.BlocksSkipped != want.BlocksSkipped ||
		got.CDown != want.CDown || got.CUp != want.CUp || got.CUp != 16 {
		t.Fatalf("job comm %+v, the wire carried %+v (16 C tiles up)", got, want)
	}
}
