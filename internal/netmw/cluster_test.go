package netmw

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// --- proto round-trips ----------------------------------------------------

func TestRegisterInfoRoundTrip(t *testing.T) {
	in := RegisterInfo{Name: "worker-α-7", Mem: 123456, Slots: 4, Version: ProtocolVersion}
	var out RegisterInfo
	if err := out.decode(in.encode()); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	// A registration from a build that predates the version field ends
	// at the name: it decodes, as version 0.
	unversioned := in.encode()[:registerFixedLen+len(in.Name)]
	if err := out.decode(unversioned); err != nil || out.Version != 0 || out.Name != in.Name {
		t.Fatalf("unversioned registration decoded as %+v, %v; want version 0", out, err)
	}
	var short RegisterInfo
	if err := short.decode([]byte{1, 2}); err == nil {
		t.Fatal("short register payload accepted")
	}
	if err := short.decode(unversioned[:len(unversioned)-1]); err == nil {
		t.Fatal("truncated register name accepted")
	}
}

func TestTaskHeaderRoundTrip(t *testing.T) {
	in := TaskHeader{Job: 7, Seq: 42, Attempt: 3, Steps: 9, I0: 11, J0: 13, Rows: 2, Cols: 5, Q: 64}
	buf := make([]byte, taskHeaderLen)
	in.encode(buf)
	var out TaskHeader
	if err := out.decode(buf); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
	if err := out.decode(buf[:taskHeaderLen-1]); err == nil {
		t.Fatal("short task header accepted")
	}
}

func TestTaskResultHeaderRoundTrip(t *testing.T) {
	in := TaskResultHeader{Job: 1, Seq: 2, Attempt: 3}
	buf := make([]byte, taskResultHeaderLen)
	in.encode(buf)
	var out TaskResultHeader
	if err := out.decode(buf); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v != %+v", out, in)
	}
}

func TestJobHeadersRoundTrip(t *testing.T) {
	jh := JobHeader{Kind: WireLU, R: 8, T: 8, S: 8, Q: 32, Mu: 4}
	buf := make([]byte, jobHeaderLen)
	jh.encode(buf)
	var jout JobHeader
	if err := jout.decode(buf); err != nil {
		t.Fatal(err)
	}
	if jout != jh {
		t.Fatalf("round trip %+v != %+v", jout, jh)
	}
	dh := JobDoneHeader{Job: 5, Code: 1}
	dbuf := make([]byte, jobDoneHeaderLen)
	dh.encode(dbuf)
	var dout JobDoneHeader
	if err := dout.decode(dbuf); err != nil {
		t.Fatal(err)
	}
	if dout != dh {
		t.Fatalf("round trip %+v != %+v", dout, dh)
	}
}

// TestClusterMessagesThroughFraming pushes the new message types through
// writeMsg/readMsg to check framing, including the empty heartbeat.
func TestClusterMessagesThroughFraming(t *testing.T) {
	var buf bytes.Buffer
	ri := RegisterInfo{Name: "w1", Mem: 9, Version: ProtocolVersion}
	if err := writeMsg(&buf, MsgRegister, ri.encode()); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(&buf, MsgHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	th := TaskHeader{Job: 1, Seq: 2, Attempt: 0, Steps: 4, Rows: 1, Cols: 1, Q: 2}
	tp := make([]byte, taskHeaderLen)
	th.encode(tp)
	tp = matrix.AppendFloats(tp, []float64{1, 2, 3, 4})
	if err := writeMsg(&buf, MsgTask, tp); err != nil {
		t.Fatal(err)
	}

	mt, payload, err := readMsg(&buf)
	if err != nil || mt != MsgRegister {
		t.Fatalf("msg 1: %v %v", mt, err)
	}
	var rout RegisterInfo
	if err := rout.decode(payload); err != nil || rout != ri {
		t.Fatalf("register decode %+v err %v", rout, err)
	}
	mt, payload, err = readMsg(&buf)
	if err != nil || mt != MsgHeartbeat || len(payload) != 0 {
		t.Fatalf("msg 2: %v %d err %v", mt, len(payload), err)
	}
	mt, payload, err = readMsg(&buf)
	if err != nil || mt != MsgTask {
		t.Fatalf("msg 3: %v err %v", mt, err)
	}
	var tout TaskHeader
	if err := tout.decode(payload); err != nil || tout != th {
		t.Fatalf("task decode %+v err %v", tout, err)
	}
	fs, _, err := getFloats(payload[taskHeaderLen:], 4)
	if err != nil || fs[0] != 1 || fs[3] != 4 {
		t.Fatalf("task blocks %v err %v", fs, err)
	}
}

// --- TCP integration ------------------------------------------------------

func startCluster(t *testing.T) (*cluster.Cluster, *ClusterServer) {
	t.Helper()
	return startClusterWith(t, ClusterServerConfig{})
}

// startClusterWith is startCluster serving with cfg on a loopback port.
func startClusterWith(t *testing.T, cfg ClusterServerConfig) (*cluster.Cluster, *ClusterServer) {
	t.Helper()
	checkGoroutines(t)
	// A long heartbeat timeout keeps wall-clock expiry out of the test;
	// failure detection here comes from connection drops.
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	cfg.Addr = "127.0.0.1:0"
	srv, err := ServeCluster(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return cl, srv
}

func matmulInputs(t *testing.T, nA, nAB, nB, q int, seed int64) (c, a, b *matrix.Blocked, ref *matrix.Dense) {
	t.Helper()
	ad := matrix.NewDense(nA, nAB)
	bd := matrix.NewDense(nAB, nB)
	cd := matrix.NewDense(nA, nB)
	matrix.DeterministicFill(ad, seed)
	matrix.DeterministicFill(bd, seed+1)
	matrix.DeterministicFill(cd, seed+2)
	ref = cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(cd, q), matrix.Partition(ad, q), matrix.Partition(bd, q), ref
}

// TestClusterTCPKillWorkerMidJob is the wire-level recovery scenario:
// three concurrent jobs over real sockets, one worker configured to
// vanish after its first completed task. The dropped connection declares
// it lost, its in-flight assignment is requeued, and every job completes
// exactly.
func TestClusterTCPKillWorkerMidJob(t *testing.T) {
	cl, srv := startCluster(t)
	addr := srv.Addr()

	// The doomed worker runs alone first so it is guaranteed to hold an
	// assignment when it dies.
	c1, a1, b1, ref1 := matmulInputs(t, 16, 8, 16, 4, 1)
	c2, a2, b2, ref2 := matmulInputs(t, 8, 16, 8, 4, 5)
	orig := matrix.NewDense(16, 16)
	lu.DiagonallyDominant(orig, 9)
	m := matrix.Partition(orig.Clone(), 4)

	type subres struct {
		name string
		err  error
	}
	done := make(chan subres, 3)
	go func() { done <- subres{"mm1", SubmitMatMulTCP(addr, c1, a1, b1, 2, time.Minute)} }()
	go func() { done <- subres{"mm2", SubmitMatMulTCP(addr, c2, a2, b2, 2, time.Minute)} }()
	go func() { done <- subres{"lu", luSubmission(m, 2, 0).roundTrip(addr, time.Minute)} }()

	// Wait until the jobs are registered so the doomed worker has work.
	waitCond(t, cl, "the jobs to arrive", jobsArrived(cl, 3))

	doomed := make(chan error, 1)
	go func() {
		_, err := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "doomed", Memory: 64, failAfterTasks: 1,
		})
		doomed <- err
	}()
	if err := <-doomed; err == nil {
		t.Fatal("doomed worker exited cleanly, want injected kill")
	}

	for _, name := range []string{"w1", "w2"} {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: 64, HeartbeatEvery: 50 * time.Millisecond,
		})
	}

	for i := 0; i < 3; i++ {
		r := <-done
		if r.err != nil {
			t.Fatalf("job %s failed: %v", r.name, r.err)
		}
	}
	if d := c1.Assemble().MaxDiff(ref1); d > 1e-9 {
		t.Fatalf("mm1: max |C - ref| = %g", d)
	}
	if d := c2.Assemble().MaxDiff(ref2); d > 1e-9 {
		t.Fatalf("mm2: max |C - ref| = %g", d)
	}
	if !bitEqual(m, luFactored(t, orig, 4)) {
		t.Fatal("lu: not bit-identical to lu.Factor")
	}
	st := cl.ClusterStats()
	if st.WorkersLost < 1 {
		t.Fatalf("workers lost = %d, want ≥ 1", st.WorkersLost)
	}
	if st.JobsDone != 3 {
		t.Fatalf("jobs done = %d, want 3", st.JobsDone)
	}
}

// TestClusterTCPWorkerReconnects drops a worker server-side between two
// jobs and checks it re-registers under the same name and keeps serving.
func TestClusterTCPWorkerReconnects(t *testing.T) {
	ls := &links{}
	cl, srv := startClusterWith(t, ClusterServerConfig{WrapTransport: ls.wrap})
	addr := srv.Addr()

	repCh := make(chan ClusterWorkerReport, 1)
	go func() {
		rep, _ := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "phoenix", Memory: 64,
			Reconnect: 10, Backoff: 5 * time.Millisecond,
		})
		repCh <- rep
	}()

	c1, a1, b1, ref1 := matmulInputs(t, 8, 8, 8, 4, 11)
	if err := SubmitMatMulTCP(addr, c1, a1, b1, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if d := c1.Assemble().MaxDiff(ref1); d > 1e-9 {
		t.Fatalf("job 1: max |C - ref| = %g", d)
	}

	// Simulate a network blip: the server drops the worker's connection,
	// which declares it lost; the worker must come back under the same id.
	ls.sever(t, "phoenix")

	c2, a2, b2, ref2 := matmulInputs(t, 8, 8, 8, 4, 13)
	if err := SubmitMatMulTCP(addr, c2, a2, b2, 2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if d := c2.Assemble().MaxDiff(ref2); d > 1e-9 {
		t.Fatalf("job 2: max |C - ref| = %g", d)
	}

	// Shut down: the server says Bye, the worker exits cleanly.
	cl.Close()
	srv.Close()
	rep := <-repCh
	if rep.Sessions < 2 {
		t.Fatalf("sessions = %d, want ≥ 2 (reconnect)", rep.Sessions)
	}
	if rep.Tasks < 2 {
		t.Fatalf("tasks = %d, want ≥ 2", rep.Tasks)
	}
	if st := cl.ClusterStats(); st.JobsDone != 2 {
		t.Fatalf("jobs done = %d, want 2", st.JobsDone)
	}
}

// TestSubmissionSizeCheckNoOverflow pins the hostile-geometry guard
// against uint64 wraparound: dimensions whose byte-size product is an
// exact multiple of 2⁶⁴ (R=S=Q=32768, T=16384 → need wraps to 0) must be
// rejected for an empty payload instead of provoking an 8 GiB
// allocation.
func TestSubmissionSizeCheckNoOverflow(t *testing.T) {
	hdr := JobHeader{Kind: WireMatMul, R: 32768, T: 16384, S: 32768, Q: 32768, Mu: 1}
	payload := make([]byte, jobHeaderLen)
	hdr.encode(payload)
	if _, _, err := readSubmission(bytes.NewReader(payload), len(payload), nil); err == nil {
		t.Fatal("wrapping job size accepted with an empty payload")
	}
	// A second wrap shape: all three operand terms individually huge.
	hdr = JobHeader{Kind: WireLU, R: 32768, T: 32768, S: 32768, Q: 32768, Mu: 1}
	hdr.encode(payload)
	if _, _, err := readSubmission(bytes.NewReader(payload), len(payload), nil); err == nil {
		t.Fatal("huge LU size accepted with an empty payload")
	}
}

// TestClusterTCPCloseMidTaskIsClean shuts the cluster down while a
// pipelined worker holds a task: the worker must still see a goodbye at
// a task boundary and exit cleanly rather than burning its reconnect
// budget on a reset connection. A millisecond of spin per block update
// keeps the 16-task job running for about half a second, so the close
// lands mid-job.
func TestClusterTCPCloseMidTaskIsClean(t *testing.T) {
	cl, srv := startCluster(t)
	addr := srv.Addr()
	c, a, b, _ := matmulInputs(t, 32, 32, 32, 4, 41)
	go SubmitMatMulTCP(addr, c, a, b, 2, time.Minute) // result intentionally abandoned
	// Wait for the job so the worker has work in flight when we close.
	waitCond(t, cl, "the job to arrive", jobsArrived(cl, 1))
	wdone := make(chan error, 1)
	go func() {
		_, err := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "busy", Memory: 256, Slots: 2, StageCap: 2,
			Spin: time.Millisecond, Reconnect: 3, Backoff: 50 * time.Millisecond,
		})
		wdone <- err
	}()
	waitCond(t, cl, "the worker to hold a task", func() bool {
		for _, w := range cl.Workers() {
			if w.ID == "busy" && w.Inflight > 0 {
				return true
			}
		}
		return false
	})
	cl.Close()
	srv.Close()
	if err := <-wdone; err != nil {
		t.Fatalf("worker did not shut down cleanly: %v", err)
	}
}

// TestClusterTCPSubmitErrors checks a bad submission is answered with an
// error instead of a hang or a dropped connection.
func TestClusterTCPSubmitErrors(t *testing.T) {
	_, srv := startCluster(t)
	c, a, b, _ := matmulInputs(t, 8, 8, 8, 4, 3)
	// µ = 0 is rejected by job validation server-side.
	err := SubmitMatMulTCP(srv.Addr(), c, a, b, 0, time.Minute)
	if err == nil {
		t.Fatal("µ=0 submission succeeded")
	}
}
