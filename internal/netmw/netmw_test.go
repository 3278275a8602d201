package netmw

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/matrix"
)

func TestWorkerDialError(t *testing.T) {
	if _, err := RunClusterWorker(ClusterWorkerConfig{Addr: "127.0.0.1:1", Name: "w"}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// launch runs one product over loopback TCP: a served cluster, n workers
// configured like wcfg joining it, and the job submitted once all of them
// have registered. Every worker must leave cleanly on the server's
// goodbye; launch then returns the job's final status and the workers'
// reports.
func launch(t *testing.T, c, a, b *matrix.Blocked, n, mu int, wcfg ClusterWorkerConfig) (cluster.Status, []ClusterWorkerReport) {
	t.Helper()
	cl, srv := startCluster(t)
	type exit struct {
		rep ClusterWorkerReport
		err error
	}
	exits := make(chan exit, n)
	for i := 0; i < n; i++ {
		cfg := wcfg
		cfg.Addr, cfg.Name = srv.Addr(), fmt.Sprintf("w%d", i)
		go func() {
			rep, err := RunClusterWorker(cfg)
			exits <- exit{rep, err}
		}()
	}
	waitCond(t, cl, "the workers to join", func() bool { return len(cl.Workers()) >= n })
	if err := SubmitMatMulTCP(srv.Addr(), c, a, b, mu, time.Minute); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	reps := make([]ClusterWorkerReport, 0, n)
	for i := 0; i < n; i++ {
		e := <-exits
		if e.err != nil {
			t.Errorf("worker: %v", e.err)
		}
		reps = append(reps, e.rep)
	}
	// Every session has reported by now, so the job's accounting is whole.
	return cl.Jobs()[0], reps
}

// checkProduct pins a launched product: bit-exact against the oracle,
// the job done with no task recomputed, and every block update performed
// by exactly one worker.
func checkProduct(t *testing.T, c, a *matrix.Blocked, want *matrix.Dense, st cluster.Status, reps []ClusterWorkerReport) {
	t.Helper()
	if !c.Assemble().Equal(want, 0) {
		t.Fatal("product not bit-exact")
	}
	if st.State != cluster.Done || st.TasksDone != st.TasksTotal || st.Requeues != 0 {
		t.Fatalf("job %+v", st)
	}
	var updates int64
	for _, rep := range reps {
		updates += rep.Updates
	}
	if n := int64(c.BR) * int64(a.BC) * int64(c.BC); updates != n {
		t.Fatalf("workers performed %d block updates, want %d", updates, n)
	}
}

func TestDistributedSingleWorker(t *testing.T) {
	c, a, b, want := matmulInputs(t, 32, 24, 32, 8, 11)
	st, reps := launch(t, c, a, b, 1, 2, ClusterWorkerConfig{Memory: 100, StageCap: 2})
	checkProduct(t, c, a, want, st, reps)
	if st.Comm.BlocksShipped == 0 {
		t.Fatal("no blocks accounted")
	}
}

func TestDistributedThreeWorkers(t *testing.T) {
	c, a, b, want := matmulInputs(t, 24, 16, 36, 4, 11)
	st, reps := launch(t, c, a, b, 3, 2, ClusterWorkerConfig{Memory: 100, StageCap: 2})
	checkProduct(t, c, a, want, st, reps)
	for i, rep := range reps {
		if rep.Sessions != 1 {
			t.Fatalf("worker %d: %d sessions, want all three served one session each", i, rep.Sessions)
		}
	}
}

// TestDistributedRaggedNoOverlap: µ = 3 over a 5×7 grid leaves ragged
// chunks at the edges; every C tile is still updated by exactly one task.
func TestDistributedRaggedNoOverlap(t *testing.T) {
	c, a, b, want := matmulInputs(t, 20, 8, 28, 4, 11)
	st, reps := launch(t, c, a, b, 2, 3, ClusterWorkerConfig{Memory: 100, StageCap: 1})
	checkProduct(t, c, a, want, st, reps)
}

// TestDistributedPipelined drives the double-buffered, multi-core
// worker pipeline: the next task's tile streams over the socket while
// the kernel shards the current one's updates across goroutines. The
// result must equal the oracle exactly (same accumulation order as the
// sequential kernel).
func TestDistributedPipelined(t *testing.T) {
	c, a, b, want := matmulInputs(t, 24, 16, 36, 4, 11)
	st, reps := launch(t, c, a, b, 2, 2, ClusterWorkerConfig{Memory: 100, StageCap: 2, Slots: 2, Cores: 4})
	checkProduct(t, c, a, want, st, reps)
	if st.Comm.BlocksShipped == 0 {
		t.Fatal("no blocks accounted")
	}
	// A single pipelining worker drains the whole grid alone.
	c, a, b, want = matmulInputs(t, 20, 8, 28, 4, 13)
	st, reps = launch(t, c, a, b, 1, 3, ClusterWorkerConfig{Memory: 100, StageCap: 1, Slots: 2, Cores: 2})
	checkProduct(t, c, a, want, st, reps)
}

// TestWireNumbering pins the wire encoding: every message type keeps its
// number, MsgReq's payload byte is 1, and the numbers of the retired
// frames — the single-job dialect's (1 = hello, 2 = job, 4 = result),
// the master's flush demand (13) and the tile sent behind its
// acknowledgement (14) — stay unused: a frame carrying one is refused
// by both ends of a worker session.
func TestWireNumbering(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  MsgType
		want byte
	}{
		{"MsgSet", MsgSet, 3},
		{"MsgReq", MsgReq, 5},
		{"MsgBye", MsgBye, 6},
		{"MsgRegister", MsgRegister, 7},
		{"MsgHeartbeat", MsgHeartbeat, 8},
		{"MsgTask", MsgTask, 9},
		{"MsgTaskResult", MsgTaskResult, 10},
		{"MsgSubmit", MsgSubmit, 11},
		{"MsgJobDone", MsgJobDone, 12},
	} {
		if byte(tc.got) != tc.want {
			t.Errorf("%s = %d on the wire, want %d", tc.name, tc.got, tc.want)
		}
	}
	if ReqSet != 1 {
		t.Errorf("ReqSet = %d on the wire, want 1", ReqSet)
	}
	for _, retired := range []MsgType{1, 2, 4, 13, 14} {
		for _, end := range []string{"server", "worker"} {
			local, remote := net.Pipe()
			go writeMsg(remote, retired, []byte{0, 0, 0, 0})
			var err error
			if end == "server" {
				_, err = NewServerTransport(local, nil, func() error { return nil }).Recv()
			} else {
				_, err = NewClusterWorkerTransport(local, nil).Recv()
			}
			if err == nil {
				t.Errorf("%s transport accepted a frame of retired type %d", end, retired)
			}
			local.Close()
			remote.Close()
		}
	}
}

// rogueWorker registers a hand-rolled worker, takes its task and
// answers it with one frame. Past the task's pushed update sets the
// server must sever that session — declaring the worker lost, so its
// task is requeued — and the job must still finish, bit-exact, on a
// healthy worker.
func rogueWorker(t *testing.T, reply MsgType, payload []byte) {
	t.Helper()
	cl, srv := startCluster(t)
	addr := srv.Addr()
	c, a, b, ref := matmulInputs(t, 8, 8, 8, 4, 5)
	done := make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(addr, c, a, b, 2, time.Minute) }()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	if err := writeMsg(conn, MsgRegister, (&RegisterInfo{Name: "rogue", Mem: 64, Version: ProtocolVersion}).encode()); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := readMsg(conn); err != nil || mt != MsgTask {
		t.Fatalf("rogue worker read %v, %v; want a task", mt, err)
	}
	if err := writeMsg(conn, reply, payload); err != nil {
		t.Fatal(err)
	}
	for {
		mt, _, err := readMsg(conn)
		if err != nil {
			break
		}
		if mt != MsgSet {
			t.Fatalf("server answered message %d with message %d; want the session severed", reply, mt)
		}
	}
	waitCond(t, cl, "the rogue worker declared lost", func() bool {
		return cl.ClusterStats().WorkersLost == 1
	})
	go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "healthy", Memory: 64})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result differs by %g", d)
	}
}

// TestMasterSurvivesShortResult: a malformed (3-byte) MsgTaskResult
// severs its session instead of panicking the server on the undersized
// payload.
func TestMasterSurvivesShortResult(t *testing.T) {
	rogueWorker(t, MsgTaskResult, []byte{1, 2, 3})
}

// TestPullDialectWorkerSevered: a worker of the retired pull dialect
// asks for its task's first update set with MsgReq. The master pushes
// every set, so the request is a protocol violation (engine.
// ErrSetRequest): the session ends at once and the task is requeued.
func TestPullDialectWorkerSevered(t *testing.T) {
	rogueWorker(t, MsgReq, []byte{ReqSet})
}

func TestFloatsRoundTrip(t *testing.T) {
	in := []float64{0, 1, -2.5, 3.14159, -1e300}
	buf := matrix.AppendFloats(nil, in)
	out, rest, err := getFloats(buf, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatal("leftover bytes")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("float %d: %v != %v", i, in[i], out[i])
		}
	}
	if _, _, err := getFloats(buf, len(in)+1); err == nil {
		t.Fatal("short payload accepted")
	}
}

// TestGetFloatsShort pins the bounds check of the getFloats wrapper.
func TestGetFloatsShort(t *testing.T) {
	buf := matrix.AppendFloats(nil, []float64{1, 2, 3})
	if _, _, err := getFloats(buf, 4); err == nil {
		t.Fatal("short float payload accepted")
	}
	fs, rest, err := getFloats(buf, 2)
	if err != nil || len(fs) != 2 || len(rest) != 8 {
		t.Fatalf("getFloats: fs=%v rest=%d err=%v", fs, len(rest), err)
	}
}

func TestReadMsgRejectsOversizedPayload(t *testing.T) {
	// a corrupted length prefix must not provoke a giant allocation
	var buf [5]byte
	buf[0] = byte(MsgTask)
	buf[1] = 0xff
	buf[2] = 0xff
	buf[3] = 0xff
	buf[4] = 0x7f
	if _, _, err := readMsg(bytes.NewReader(buf[:])); err == nil {
		t.Fatal("oversized payload accepted")
	}
}
