package netmw

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// TestE2EMultiSlotPipelinedCluster is the end-to-end hardening pass over
// real TCP sockets: a ServeCluster service, three multi-slot workers
// running the full pipeline (task prefetch + staged update sets +
// multi-core tiled kernels), a batch of concurrent matmul and LU jobs
// from separate client connections, and one worker killed mid-job. Every
// result must match the naive oracle exactly to the usual tolerance, and
// the scheduler must account one lost worker with all its held chunks
// requeued.
func TestE2EMultiSlotPipelinedCluster(t *testing.T) {
	checkGoroutines(t)
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	srv, err := ServeCluster(cl, ClusterServerConfig{Addr: "127.0.0.1:0", MaxSlots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cl.Close()
		srv.Close()
	}()
	addr := srv.Addr()

	// Build the job batch first: 3 matmuls of different shapes plus 2 LU
	// factorizations, all with independent oracles.
	type mmJob struct {
		c, a, b *matrix.Blocked
		ref     *matrix.Dense
	}
	mms := []mmJob{}
	for i, dims := range [][3]int{{16, 8, 16}, {8, 16, 8}, {12, 12, 20}} {
		c, a, b, ref := matmulInputs(t, dims[0], dims[1], dims[2], 4, int64(31+i*7))
		mms = append(mms, mmJob{c, a, b, ref})
	}
	type luJob struct {
		orig *matrix.Dense
		m    *matrix.Blocked
	}
	lus := []luJob{}
	for i := 0; i < 2; i++ {
		orig := matrix.NewDense(16, 16)
		lu.DiagonallyDominant(orig, int64(91+i))
		lus = append(lus, luJob{orig, matrix.Partition(orig.Clone(), 4)})
	}

	// Submit everything concurrently over separate client connections.
	errs := make(chan error, len(mms)+len(lus))
	var subs sync.WaitGroup
	for i := range mms {
		subs.Add(1)
		go func(i int) {
			defer subs.Done()
			if err := SubmitMatMulTCP(addr, mms[i].c, mms[i].a, mms[i].b, 2, time.Minute); err != nil {
				errs <- fmt.Errorf("mm%d: %w", i, err)
			}
		}(i)
	}
	for i := range lus {
		subs.Add(1)
		go func(i int) {
			defer subs.Done()
			if err := luSubmission(lus[i].m, 2, 0).roundTrip(addr, time.Minute); err != nil {
				errs <- fmt.Errorf("lu%d: %w", i, err)
			}
		}(i)
	}

	// Wait until the jobs are registered so the doomed worker is
	// guaranteed to hold assignments when it dies.
	waitCond(t, cl, "the jobs to arrive", jobsArrived(cl, len(mms)+len(lus)))

	// The doomed worker joins first, alone, with 2 slots: when the kill
	// hook fires it holds its computing task AND its prefetched one —
	// recovery must requeue both.
	doomed := make(chan error, 1)
	go func() {
		_, err := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "doomed", Memory: 64, Slots: 2, Cores: 2,
			failAfterTasks: 2,
		})
		doomed <- err
	}()
	if err := <-doomed; err == nil {
		t.Fatal("doomed worker exited cleanly, want injected kill")
	}

	// Three survivors: multi-slot, multi-core, heartbeating — the full
	// production configuration.
	var workers sync.WaitGroup
	reports := make([]ClusterWorkerReport, 3)
	for i := 0; i < 3; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			reports[i], _ = RunClusterWorker(ClusterWorkerConfig{
				Addr: addr, Name: fmt.Sprintf("w%d", i), Memory: 256,
				Slots: 2, Cores: 2, StageCap: 2,
				HeartbeatEvery: 50 * time.Millisecond,
				Reconnect:      5, Backoff: 10 * time.Millisecond,
			})
		}(i)
	}

	subs.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every matmul result equals the oracle.
	for i, mm := range mms {
		if d := mm.c.Assemble().MaxDiff(mm.ref); d > 1e-9 {
			t.Fatalf("mm%d: max |C - ref| = %g", i, d)
		}
	}
	// Every LU factorization is lu.Factor's, bit for bit.
	for i, l := range lus {
		if !bitEqual(l.m, luFactored(t, l.orig, 4)) {
			t.Fatalf("lu%d: not bit-identical to lu.Factor", i)
		}
	}

	st := cl.ClusterStats()
	if st.JobsDone != len(mms)+len(lus) {
		t.Fatalf("jobs done = %d, want %d", st.JobsDone, len(mms)+len(lus))
	}
	if st.WorkersLost < 1 {
		t.Fatalf("workers lost = %d, want ≥ 1 (the kill)", st.WorkersLost)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues = %d, want ≥ 1 (the killed worker's chunks)", st.Requeues)
	}

	// Clean shutdown: Bye to every worker, all sessions end.
	cl.Close()
	srv.Close()
	workers.Wait()
	var tasks int
	for _, rep := range reports {
		tasks += rep.Tasks
	}
	if tasks == 0 {
		t.Fatal("survivor workers served no tasks")
	}
}
