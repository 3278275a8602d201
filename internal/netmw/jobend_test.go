package netmw

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// TestWorkerReusesBlocksAcrossJobs: a finished job's blocks leave the
// worker's operand cache at the next job's first task, and its buffers
// go back to the worker's pool before that task's sets are read, so a
// stream of same-shape jobs allocates block buffers during the first
// job only. The cache budget
// (1024 blocks) holds several jobs' operands (128 each), so a worker
// that kept finished jobs' blocks until capacity pressure evicted them
// would allocate on every job until the cache filled. Every C is
// bit-exact. The pool is sync.Pool-backed, so the collector is off for
// the test (a collection sheds buffers the protocol kept), and the
// count may still grow by one buffer per P: a sync.Pool keeps each P's
// last Put where another P's Get does not look.
func TestWorkerReusesBlocksAcrossJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cl, srv := startCluster(t)
	pool := engine.NewBlockPool()
	repCh := make(chan ClusterWorkerReport, 1)
	go func() {
		rep, _ := RunClusterWorker(ClusterWorkerConfig{
			Addr: srv.Addr(), Name: "w", Memory: 1024, Slots: 2, pool: pool,
		})
		repCh <- rep
	}()
	var first int64
	for job := 0; job < 10; job++ {
		// C starts at zero, so every tile goes down as a flag and is
		// materialized by the goroutine that returned the previous
		// task's tile to the pool. (A shipped tile is read into a block
		// while the previous one may still be on its way back: it goes
		// back once its Result's write returns, which can trail the
		// master's reply to the client.)
		_, a, b, _ := matmulInputs(t, 32, 32, 32, 4, int64(90+job))
		c := matrix.NewBlocked(8, 8, 4)
		ref := matrix.NewDense(32, 32)
		matrix.MulNaive(ref, a.Assemble(), b.Assemble())
		if err := SubmitMatMulTCP(srv.Addr(), c, a, b, 2, time.Minute); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if !c.Assemble().Equal(ref, 0) {
			t.Fatalf("job %d is not bit-exact", job)
		}
		switch fresh := pool.Fresh(); {
		case job == 0 && fresh == 0:
			t.Fatal("the first job allocated no block buffers: the count is not wired")
		case job == 0:
			first = fresh
		case fresh-first > int64(runtime.GOMAXPROCS(0)):
			t.Fatalf("the worker allocated %d block buffers after the first job (%d by job %d)",
				fresh-first, fresh, job)
		}
	}
	cl.Close()
	srv.Close()
	if rep := <-repCh; rep.FreshBlocks != pool.Fresh() {
		t.Fatalf("report counts %d fresh blocks, the pool %d", rep.FreshBlocks, pool.Fresh())
	}
}
