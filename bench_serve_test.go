package repro

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/matrix"
	"repro/internal/store"
)

// buildRecoveryJournal populates dir with a realistic crash scene: jobs
// jobs of an nGrid×nGrid block-q matmul, half run to completion by a
// local worker, half left mid-flight with some chunks committed — then
// the journal is closed with the cluster abandoned, exactly what a
// SIGKILLed master leaves behind.
func buildRecoveryJournal(b *testing.B, dir string, jobs, nGrid, q int) {
	b.Helper()
	jn, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	clk := cluster.NewManualClock(time.Unix(0, 0))
	cl := cluster.New(cluster.Config{
		HeartbeatTimeout: time.Hour,
		Clock:            clk,
		Log:              cluster.NewStoreLog(jn),
	})
	n := nGrid * q
	mkJob := func(seed int64) cluster.JobSpec {
		ad, bd, cd := matrix.NewDense(n, n), matrix.NewDense(n, n), matrix.NewDense(n, n)
		matrix.DeterministicFill(ad, seed)
		matrix.DeterministicFill(bd, seed+1)
		matrix.DeterministicFill(cd, seed+2)
		return cluster.JobSpec{
			Kind: cluster.MatMul, Mu: 1,
			C: matrix.Partition(cd, q), A: matrix.Partition(ad, q), B: matrix.Partition(bd, q),
		}
	}
	// First half: finished jobs — each contributes its full chunk-commit
	// trail plus a done event, the bulk of the replay volume.
	go cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{ID: "bw", Mem: 4 * nGrid * nGrid})
	for i := 0; i < jobs/2; i++ {
		id, err := cl.SubmitJob(mkJob(int64(1000 + 10*i)))
		if err != nil {
			b.Fatal(err)
		}
		if st, err := cl.Wait(id); err != nil || st.State != cluster.Done {
			b.Fatalf("seed job %d: state=%v err=%v", i, st.State, err)
		}
	}
	// Kill the worker (staleness sweep under the manual clock), then
	// accept the second half unserved — replayed as resumed jobs with
	// every task requeued.
	clk.Advance(2 * time.Hour)
	cl.CheckExpiry()
	for i := 0; i < jobs-jobs/2; i++ {
		if _, err := cl.SubmitJob(mkJob(int64(2000 + 10*i))); err != nil {
			b.Fatal(err)
		}
	}
	// Crash: close the journal, abandon the cluster un-Closed.
	if err := jn.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeRecovery measures the master's boot-time replay: open
// the journal a crashed master left behind, rebuild every job's state
// (terminal results for done jobs, requeued tasks for unfinished ones),
// and report the wall time plus the replay throughput. This is the
// availability cost of the durable control plane — the window between
// mmserve restarting and accepting traffic again.
func BenchmarkServeRecovery(b *testing.B) {
	const jobs, nGrid, q = 8, 6, 16 // 8 jobs × 36 tasks of 16×16 blocks
	dir := b.TempDir()
	buildRecoveryJournal(b, dir, jobs, nGrid, q)

	var bytes int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			bytes += fi.Size()
		}
	}

	var last cluster.RecoveryStats
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jn, err := store.Open(dir, store.Options{Sync: func(*os.File) error { return nil }})
		if err != nil {
			b.Fatal(err)
		}
		cl := cluster.New(cluster.Config{
			HeartbeatTimeout: time.Hour,
			Log:              cluster.NewStoreLog(jn),
		})
		last, err = cl.Recover()
		if err != nil {
			b.Fatal(err)
		}
		cl.Close()
		jn.Close()
	}
	b.StopTimer()
	elapsed := time.Since(start)

	if last.Jobs != jobs || last.Done != jobs/2 || last.Resumed != jobs-jobs/2 {
		b.Fatalf("recovery stats = %+v, want %d jobs (%d done, %d resumed)",
			last, jobs, jobs/2, jobs-jobs/2)
	}
	perIter := elapsed / time.Duration(b.N)
	b.ReportMetric(float64(perIter.Microseconds())/1000, "recovery-ms")
	b.ReportMetric(float64(last.Jobs), "jobs-replayed")
	b.ReportMetric(float64(bytes)/(1<<20), "journal-MB")
	b.ReportMetric(float64(last.Events)/perIter.Seconds(), "replay-events/s")
}

// benchVerifyJob runs one nGrid×nGrid block-q matmul job on a fresh
// cluster under the given verification mode and returns the job's wall
// time plus the cluster's cumulative stats (fresh cluster, so they are
// per-job).
func benchVerifyJob(b *testing.B, mode cluster.VerifyMode, nGrid, q int) (time.Duration, cluster.Stats) {
	b.Helper()
	cl := cluster.New(cluster.Config{
		HeartbeatTimeout: time.Hour,
		Verify:           cluster.VerifyPolicy{Mode: mode},
	})
	defer cl.Close()
	go cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{ID: "bw", Mem: 4 * nGrid * nGrid})
	n := nGrid * q
	ad, bd, cd := matrix.NewDense(n, n), matrix.NewDense(n, n), matrix.NewDense(n, n)
	matrix.DeterministicFill(ad, 5)
	matrix.DeterministicFill(bd, 6)
	matrix.DeterministicFill(cd, 7)
	start := time.Now()
	id, err := cl.SubmitJob(cluster.JobSpec{
		Kind: cluster.MatMul, Mu: 2,
		C: matrix.Partition(cd, q), A: matrix.Partition(ad, q), B: matrix.Partition(bd, q),
	})
	if err != nil {
		b.Fatal(err)
	}
	if st, err := cl.Wait(id); err != nil || st.State != cluster.Done {
		b.Fatalf("verify bench job: state=%v err=%v", st.State, err)
	}
	elapsed := time.Since(start)
	st := cl.ClusterStats()
	if st.VerifyFailures != 0 {
		b.Fatalf("honest bench worker refused %d tiles", st.VerifyFailures)
	}
	return elapsed, st
}

// BenchmarkServeVerify prices the result-integrity tentpole: the same
// q=128 matmul job with Freivalds verification off versus verify-all.
// The "all" arm reports the verifier's own wall time (verify-ms) and
// its share of the makespan (verify-overhead-%) — the cost of checking
// every committed tile against the master-owned operands. The probe is
// memory-bound (one sweep over the candidate and old tiles, with the
// operand projections amortized per job) against the worker's
// compute-bound O(T·q³) SIMD kernel, so the overhead fraction falls as
// the update depth T grows; the 24×24 grid is a production-shaped job
// where the amortization is actually exercised.
func BenchmarkServeVerify(b *testing.B) {
	const nGrid, q = 24, 128
	for _, arm := range []struct {
		name string
		mode cluster.VerifyMode
	}{{"off", cluster.VerifyOff}, {"all", cluster.VerifyAll}} {
		b.Run(arm.name, func(b *testing.B) {
			var total, verify time.Duration
			var last cluster.Stats
			for i := 0; i < b.N; i++ {
				el, st := benchVerifyJob(b, arm.mode, nGrid, q)
				total += el
				verify += time.Duration(st.VerifyNS)
				last = st
			}
			per := total / time.Duration(b.N)
			b.ReportMetric(float64(per.Microseconds())/1000, "makespan-ms")
			if arm.mode == cluster.VerifyAll {
				if last.VerifyChecks != nGrid*nGrid {
					b.Fatalf("checked %d tiles, want %d", last.VerifyChecks, nGrid*nGrid)
				}
				perVerify := verify / time.Duration(b.N)
				b.ReportMetric(float64(perVerify.Microseconds())/1000, "verify-ms")
				b.ReportMetric(100*float64(verify)/float64(total), "verify-overhead-%")
				b.ReportMetric(float64(last.VerifyChecks), "tiles-checked")
				b.ReportMetric(float64(last.TilesRecomputed), "tiles-recomputed")
			}
		})
	}
}
