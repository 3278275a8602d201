package netmw

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestExpiryRequeuesFrozenMultiSlotWorker freezes a registered two-slot
// worker that holds two assigned tasks (the SIGSTOP scenario): heartbeat
// expiry must declare it lost, requeue BOTH held chunks, and the job must
// finish on a healthy worker.
func TestExpiryRequeuesFrozenMultiSlotWorker(t *testing.T) {
	checkGoroutines(t)
	cl := cluster.New(cluster.Config{HeartbeatTimeout: 200 * time.Millisecond})
	srv, err := ServeCluster(cl, ClusterServerConfig{Addr: "127.0.0.1:0", ExpiryEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Close(); srv.Close() }()
	c, a, b, _ := matmulInputs(t, 16, 8, 16, 4, 77)
	done := make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(srv.Addr(), c, a, b, 2, time.Minute) }()

	// Frozen worker: registers with 2 slots, receives whatever the server
	// pushes, then never answers — the SIGSTOP scenario.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ri := RegisterInfo{Name: "frozen", Mem: 64, Slots: 2, Version: ProtocolVersion}
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, MsgRegister, ri.encode()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	go func() {
		r := bufio.NewReader(conn)
		for {
			if _, _, err := readMsg(r); err != nil {
				return
			}
		}
	}()

	waitCond(t, cl, "heartbeat expiry", func() bool { return cl.ClusterStats().WorkersLost >= 1 })
	// and the job must still finish on a healthy worker
	go RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: "healthy", Memory: 64, Slots: 2})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
