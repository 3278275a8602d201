package matmul_test

import (
	"testing"
	"time"

	"repro/pkg/matmul"
)

// TestClusterEndToEnd drives the public in-process cluster surface: a
// scheduler, two in-process workers, one matmul job, its status and the
// service stats.
func TestClusterEndToEnd(t *testing.T) {
	cl := matmul.NewCluster(matmul.ClusterConfig{HeartbeatTimeout: time.Hour})
	defer cl.Close()
	go matmul.RunClusterWorkerLocal(cl, "w1", 64)
	go matmul.RunClusterWorkerLocal(cl, "w2", 64)

	const n, q = 24, 4
	ad := matmul.NewDense(n, n)
	bd := matmul.NewDense(n, n)
	cd := matmul.NewDense(n, n)
	matmul.DeterministicFill(ad, 1)
	matmul.DeterministicFill(bd, 2)
	matmul.DeterministicFill(cd, 3)
	ref := cd.Clone()
	matmul.MulReference(ref, ad, bd)
	c := matmul.Partition(cd, q)

	id, err := matmul.SubmitMatMul(cl, c, matmul.Partition(ad, q), matmul.Partition(bd, q), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(id); err != nil || st.Err != nil {
		t.Fatalf("Wait(%d): %v, job error %v", id, err, st.Err)
	}
	got, err := cl.JobStatus(id)
	if err != nil || got.State.String() != "done" || got.TasksDone != got.TasksTotal {
		t.Fatalf("JobStatus(%d) = %+v, %v", id, got, err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
	// Both workers may not have joined before the small job drained, so
	// only the job counters are asserted.
	if st := cl.ClusterStats(); st.JobsDone != 1 || st.JobsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClusterTCPPublicSurface runs the TCP service end to end through
// the public wrappers.
func TestClusterTCPPublicSurface(t *testing.T) {
	cl := matmul.NewCluster(matmul.ClusterConfig{HeartbeatTimeout: time.Hour})
	defer cl.Close()
	svc, err := matmul.ServeClusterTCP(cl, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	go matmul.WorkClusterTCP(svc.Addr(), matmul.ClusterWorkerOptions{
		Name: "w1", MemoryBlocks: 64, HeartbeatEvery: 50 * time.Millisecond,
	})

	const n, q = 16, 4
	ad := matmul.NewDense(n, n)
	bd := matmul.NewDense(n, n)
	cd := matmul.NewDense(n, n)
	matmul.DeterministicFill(ad, 5)
	matmul.DeterministicFill(bd, 6)
	matmul.DeterministicFill(cd, 7)
	ref := cd.Clone()
	matmul.MulReference(ref, ad, bd)
	c := matmul.Partition(cd, q)
	if err := matmul.SubmitMatMulTCP(svc.Addr(), c, matmul.Partition(ad, q), matmul.Partition(bd, q), 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
}
