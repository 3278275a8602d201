package netmw

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/store"
)

// luFactored is the bit pattern every LU job must end in: lu.Factor of
// orig, with the block edge q as its panel, partitioned into q-blocks.
func luFactored(t *testing.T, orig *matrix.Dense, q int) *matrix.Blocked {
	t.Helper()
	want := orig.Clone()
	if err := lu.Factor(want, q); err != nil {
		t.Fatal(err)
	}
	return matrix.Partition(want, q)
}

// bitEqual reports whether two blocked matrices hold the same bits.
func bitEqual(x, y *matrix.Blocked) bool {
	if x.BR != y.BR || x.BC != y.BC || x.Q != y.Q {
		return false
	}
	for i, b := range x.Blocks {
		for k, v := range b.Data {
			if math.Float64bits(v) != math.Float64bits(y.Blocks[i].Data[k]) {
				return false
			}
		}
	}
	return true
}

// --- (a) wire compatibility -------------------------------------------------

// TestSubmissionDecodesOldWireLayout: a payload assembled the old way
// (header + encodeBlocked per operand) streams through the server's
// decoder into bit-identical matrices, key and µ intact, for both kinds.
func TestSubmissionDecodesOldWireLayout(t *testing.T) {
	c, a, b, _ := matmulInputs(t, 12, 8, 16, 4, 91)
	hdr := JobHeader{Kind: WireMatMul, R: 3, T: 2, S: 4, Q: 4, Mu: 2, Key: 0xfeedface}
	payload := oldSubmitPayload(hdr, c, a, b)
	spec, key, err := readSubmission(bytes.NewReader(payload), len(payload), engine.NewBlockPool())
	if err != nil {
		t.Fatal(err)
	}
	if key != hdr.Key || spec.Mu != 2 || spec.Kind != cluster.MatMul || !spec.Pooled {
		t.Fatalf("decoded spec %+v key %#x", spec, key)
	}
	if !bitEqual(spec.C, c) || !bitEqual(spec.A, a) || !bitEqual(spec.B, b) {
		t.Fatal("streamed operands differ from the old layout's")
	}
	for i, blk := range spec.A.Blocks {
		if blk.I != i/spec.A.BC || blk.J != i%spec.A.BC {
			t.Fatalf("A block %d tagged (%d,%d)", i, blk.I, blk.J)
		}
	}

	lhdr := JobHeader{Kind: WireLU, R: 3, T: 3, S: 3, Q: 4, Mu: 1}
	m, _, _, _ := matmulInputs(t, 12, 4, 12, 4, 93)
	payload = oldSubmitPayload(lhdr, m)
	spec, _, err = readSubmission(bytes.NewReader(payload), len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != cluster.LU || !bitEqual(spec.M, m) {
		t.Fatal("streamed LU operand differs from the old layout's")
	}
}

// TestOldClientAgainstStreamingServer runs the old whole-payload client
// (writeMsg of an assembled frame, readMsg, block-by-block decode)
// against the streaming server end to end: bit-exact result.
func TestOldClientAgainstStreamingServer(t *testing.T) {
	_, srv := startCluster(t)
	go RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: "w1", Memory: 64})
	c, a, b, ref := matmulInputs(t, 16, 8, 16, 4, 95)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	hdr := JobHeader{Kind: WireMatMul, R: 4, T: 2, S: 4, Q: 4, Mu: 2}
	w := bufio.NewWriter(conn)
	if err := writeMsg(w, MsgSubmit, oldSubmitPayload(hdr, c, a, b)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	mt, resp, err := readMsg(bufio.NewReader(conn))
	if err != nil || mt != MsgJobDone {
		t.Fatalf("reply: type %d err %v", mt, err)
	}
	if err := oldDecodeResult(resp, c); err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("old client's result differs by %g", d)
	}
}

// TestStreamingClientFramesUnchanged pins the client's side of the wire:
// the streamed MsgSubmit is byte-identical to the old assembled frame,
// and an old-style assembled MsgJobDone decodes through the new client.
func TestStreamingClientFramesUnchanged(t *testing.T) {
	c, a, b, _ := matmulInputs(t, 8, 12, 8, 4, 97)
	want := matrix.NewBlocked(2, 2, 4)
	for i, blk := range want.Blocks {
		for k := range blk.Data {
			blk.Data[k] = float64(100*i + k)
		}
	}
	var frame bytes.Buffer
	hdr := JobHeader{Kind: WireMatMul, R: 2, T: 3, S: 2, Q: 4, Mu: 2, Key: 77}
	writeMsg(&frame, MsgSubmit, oldSubmitPayload(hdr, c, a, b))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, frame.Len())
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		got <- buf
		reply := make([]byte, jobDoneHeaderLen)
		(&JobDoneHeader{Job: 5}).encode(reply)
		writeMsg(conn, MsgJobDone, encodeBlocked(reply, want))
	}()
	if err := SubmitMatMulDurable(ln.Addr().String(), c, a, b, 2, SubmitOptions{Key: 77, Timeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(<-got, frame.Bytes()) {
		t.Fatal("streamed MsgSubmit differs from the old assembled frame")
	}
	if !bitEqual(c, want) {
		t.Fatal("old-style MsgJobDone decoded to different bits")
	}
}

// --- (b) truncation and hostile headers --------------------------------------

// allocatedBy returns the heap bytes allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leastAllocatedBy is the least of three allocatedBy readings of f.
// TotalAlloc is process-wide, so a goroutine of an earlier test still
// winding down counts against one reading; a deterministic f allocates
// the same each run, and the least reading is its own.
func leastAllocatedBy(f func()) uint64 {
	least := allocatedBy(f)
	for range 2 {
		least = min(least, allocatedBy(f))
	}
	return least
}

// TestReadSubmissionFollowsArrival feeds the stream decoder every prefix
// of a valid submission, and headers that declare far more than they
// deliver: it must fail without panicking and never allocate more than
// the bytes that arrived plus one block (and the per-block bookkeeping).
func TestReadSubmissionFollowsArrival(t *testing.T) {
	const q = 16
	c, a, b, _ := matmulInputs(t, 2*q, 3*q, 2*q, q, 99)
	hdr := JobHeader{Kind: WireMatMul, R: 2, T: 3, S: 2, Q: q, Mu: 1}
	payload := oldSubmitPayload(hdr, c, a, b)
	const block = q * q * 8
	const slack = 16 << 10 // Block structs, slice growth, error values
	for cut := 0; cut < len(payload); cut += 97 {
		var err error
		got := allocatedBy(func() {
			_, _, err = readSubmission(bytes.NewReader(payload[:cut]), len(payload), nil)
		})
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(payload))
		}
		if limit := uint64(cut + block + slack); got > limit {
			t.Fatalf("prefix of %d bytes allocated %d, limit %d", cut, got, limit)
		}
		// The same prefix as a frame that declares only what it carries.
		if _, _, err := readSubmission(bytes.NewReader(payload[:cut]), cut, nil); err == nil {
			t.Fatalf("frame cut to %d bytes decoded without error", cut)
		}
	}
	if _, _, err := readSubmission(bytes.NewReader(payload), len(payload), nil); err != nil {
		t.Fatalf("the whole frame: %v", err)
	}
	padded := append(append([]byte(nil), payload...), 0)
	if _, _, err := readSubmission(bytes.NewReader(padded), len(padded), nil); err == nil {
		t.Fatal("frame with a trailing byte accepted")
	}

	hostile := []JobHeader{
		{Kind: WireMatMul, R: 4, T: 4, S: 4, Q: 512, Mu: 1},       // 96 MiB declared, 2 MiB blocks
		{Kind: WireLU, R: 2048, T: 2048, S: 2048, Q: 2, Mu: 1},    // 4M tiny blocks
		{Kind: WireMatMul, R: 1, T: 1, S: 1, Q: 3000, Mu: 1},      // three 68 MiB blocks
		{Kind: WireMatMul, R: 32768, T: 1, S: 32768, Q: 1, Mu: 1}, // 8 GiB of C: over any frame
		{Kind: 9, R: 1, T: 1, S: 1, Q: 1},
		{Kind: WireMatMul, R: 0, T: 1, S: 1, Q: 1},
	}
	for _, h := range hostile {
		raw := make([]byte, jobHeaderLen)
		h.encode(raw)
		declared := jobHeaderLen
		if h.Kind == WireMatMul && h.R > 0 {
			declared += int(min(uint64(h.R*h.S+h.R*h.T+h.T*h.S)*uint64(h.Q)*uint64(h.Q)*8, maxPayload-jobHeaderLen))
		} else if h.Kind == WireLU {
			declared += int(h.R) * int(h.R) * int(h.Q) * int(h.Q) * 8
		}
		var err error
		got := allocatedBy(func() {
			_, _, err = readSubmission(bytes.NewReader(raw), declared, nil)
		})
		if err == nil {
			t.Fatalf("header %+v with no operand bytes decoded without error", h)
		}
		oneBlock := uint64(h.Q) * uint64(h.Q) * 8
		if limit := jobHeaderLen + oneBlock + slack; got > limit {
			t.Fatalf("header %+v allocated %d bytes for %d delivered, limit %d", h, got, jobHeaderLen, limit)
		}
	}
}

// --- (c) all-or-nothing result ------------------------------------------------

// cutProxy forwards connections to backend; the server→client stream of
// the first one is cut after cut bytes, later ones pass untouched.
func cutProxy(t *testing.T, backend string, cut int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 0; ; n++ {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				return
			}
			go func(first bool) {
				defer client.Close()
				defer server.Close()
				go io.Copy(server, client)
				if first {
					io.CopyN(client, server, cut)
					return // hang up mid-reply
				}
				io.Copy(client, server)
			}(n == 0)
		}
	}()
	return ln.Addr().String()
}

// TestSubmitAllOrNothing: a server that hangs up halfway through the
// reply leaves dst bit-identical — it is an operand, a retry resubmits
// it — and the durable retry then lands the canonical result.
func TestSubmitAllOrNothing(t *testing.T) {
	_, srv := startCluster(t)
	go RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: "w1", Memory: 64})
	c, a, b, ref := matmulInputs(t, 32, 16, 32, 8, 101)
	orig := c.Clone()
	half := int64(msgHeaderLen + jobDoneHeaderLen + blockedBytes(c)/2)
	addr := cutProxy(t, srv.Addr(), half)

	opts := SubmitOptions{Key: 31337, Timeout: time.Minute}
	if err := SubmitMatMulDurable(addr, c, a, b, 2, opts); err == nil {
		t.Fatal("submit succeeded through a reply cut in half")
	}
	if !bitEqual(c, orig) {
		t.Fatal("a reply cut short overwrote part of dst")
	}
	opts.Retries, opts.Backoff = 3, time.Millisecond
	if err := SubmitMatMulDurable(addr, c, a, b, 2, opts); err != nil {
		t.Fatalf("durable retry: %v", err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("retried result differs from the canonical one by %g", d)
	}
}

// --- (d) retention -------------------------------------------------------------

// waitReleased polls until every job in the table retains exactly the
// wanted number of matrices (the server forgets a result just after its
// client has read it).
func waitReleased(t *testing.T, cl *cluster.Cluster, want func(cluster.Status) int) {
	t.Helper()
	waitCond(t, cl, "finished jobs to be released", func() bool {
		for _, st := range cl.Jobs() {
			if st.Retained != want(st) {
				return false
			}
		}
		return true
	})
}

// TestClusterTCPRetainsOnlyJobsInFlight: after 20 sequential unkeyed
// jobs over TCP the cluster references none of their matrices while the
// job table still counts all of them; a keyed job keeps exactly its
// result and stays re-attachable; and compacting the journal while all
// this runs neither trips over a released job nor writes one.
func TestClusterTCPRetainsOnlyJobsInFlight(t *testing.T) {
	checkGoroutines(t)
	dir := t.TempDir()
	jn, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour, Log: cluster.NewStoreLog(jn)})
	srv, err := ServeCluster(cl, ClusterServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	for _, name := range []string{"w1", "w2"} {
		go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: name, Memory: 64, Slots: 2})
	}

	stopCompact := make(chan struct{})
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stopCompact:
				return
			case <-time.After(2 * time.Millisecond):
				if err := cl.CompactLog(); err != nil {
					t.Errorf("CompactLog mid-run: %v", err)
					return
				}
			}
		}
	}()
	for n := 0; n < 20; n++ {
		c, a, b, ref := matmulInputs(t, 16, 8, 16, 4, int64(200+n))
		if err := SubmitMatMulTCP(addr, c, a, b, 2, time.Minute); err != nil {
			t.Fatalf("job %d: %v", n, err)
		}
		if d := c.Assemble().MaxDiff(ref); d != 0 {
			t.Fatalf("job %d differs by %g", n, d)
		}
	}
	close(stopCompact)
	compactor.Wait()
	waitReleased(t, cl, func(cluster.Status) int { return 0 })
	if st := cl.ClusterStats(); st.JobsDone != 20 {
		t.Fatalf("jobs done = %d, want the lifetime count 20", st.JobsDone)
	}

	c, a, b, ref := matmulInputs(t, 16, 8, 16, 4, 300)
	opts := SubmitOptions{Key: 555, Timeout: time.Minute}
	if err := SubmitMatMulDurable(addr, c, a, b, 2, opts); err != nil {
		t.Fatal(err)
	}
	waitReleased(t, cl, func(st cluster.Status) int {
		if st.ID == 20 {
			return 1 // the keyed job's result
		}
		return 0
	})
	again, a2, b2, _ := matmulInputs(t, 16, 8, 16, 4, 300)
	if err := SubmitMatMulDurable(addr, again, a2, b2, 2, opts); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if d := again.Assemble().MaxDiff(ref); d != 0 || !bitEqual(again, c) {
		t.Fatalf("re-attached result differs (max diff %g)", d)
	}
	if st := cl.ClusterStats(); st.JobsDone != 21 {
		t.Fatalf("jobs done = %d after a keyed resubmit, want 21", st.JobsDone)
	}

	if err := cl.CompactLog(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	jn.Close()
	jn2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	cl2 := cluster.New(cluster.Config{Log: cluster.NewStoreLog(jn2)})
	defer cl2.Close()
	rs, err := cl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs != 1 || rs.Done != 1 {
		t.Fatalf("compacted journal recovers %+v, want the keyed job alone", rs)
	}
	res, err := cl2.JobResult(20)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("keyed result after compaction + restart differs by %g", d)
	}
}

// TestSetRequestForReleasedJobKeepsSession: a worker declared dead by
// heartbeat expiry while its connection lives keeps streaming sets for
// its task. The job finishes on a healthy worker while the dead
// session still holds the task, and that hold keeps the job's operands:
// the sets it is still owed go out, so it runs the doomed task to the
// end, instead of the session dying mid-assignment on a nil matrix or a
// protocol error.
func TestSetRequestForReleasedJobKeepsSession(t *testing.T) {
	checkGoroutines(t)
	clk := cluster.NewManualClock(time.Unix(0, 0))
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Minute, Clock: clk})
	srv, err := ServeCluster(cl, ClusterServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Close(); srv.Close() }()
	addr := srv.Addr()
	c, a, b, ref := matmulInputs(t, 16, 32, 16, 4, 111) // 4 chunks of 2×2, 8 steps each
	done := make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(addr, c, a, b, 2, time.Minute) }()

	// 10 ms per block update: 40 ms per set, 320 ms per task. A full
	// stage stops the worker's reader, so the master's later Sets wait on
	// the worker applying the earlier ones.
	slowRep := make(chan ClusterWorkerReport, 1)
	go func() {
		rep, _ := RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: "slow", Memory: 64, Spin: 10 * time.Millisecond,
		})
		slowRep <- rep
	}()
	var doneBefore int
	waitCond(t, cl, "the slow worker to hold a task", func() bool {
		for _, w := range cl.Workers() {
			if w.ID == "slow" && w.Inflight == 1 {
				doneBefore = w.Done
				return true
			}
		}
		return false
	})
	// Silence past the heartbeat timeout: declared dead, task requeued,
	// connection untouched. (A task boundary in between refreshes its
	// liveness; just sweep again.)
	waitCond(t, cl, "expiry of the slow worker", func() bool {
		clk.Advance(2 * time.Minute)
		cl.CheckExpiry()
		for _, w := range cl.Workers() {
			if w.ID == "slow" && w.Dead {
				doneBefore = w.Done
				return true
			}
		}
		return false
	})
	go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "fast", Memory: 64})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result differs by %g", d)
	}
	waitReleased(t, cl, func(cluster.Status) int { return 0 })

	// The dead incarnation's session ends at its next task pull, not
	// before: the assignment it held when the job was released under it
	// still counts as served.
	rep := <-slowRep
	if rep.Tasks != doneBefore+1 {
		t.Fatalf("slow worker served %d assignments, want %d: its session died mid-assignment", rep.Tasks, doneBefore+1)
	}
}

// TestSubmitRefusesOversizeBeforeDial: a job the wire cannot carry is
// refused from its size alone — nothing is dialled, nothing retried.
func TestSubmitRefusesOversizeBeforeDial(t *testing.T) {
	// 3 × 200 blocks of 512 KiB declared; one shared block of memory.
	shared := matrix.NewBlock(0, 0, 256)
	big := &matrix.Blocked{BR: 10, BC: 20, Q: 256, Blocks: make([]*matrix.Block, 200)}
	for i := range big.Blocks {
		big.Blocks[i] = shared
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialled := make(chan struct{}, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			conn.Close()
			dialled <- struct{}{}
		}
	}()
	began := time.Now()
	err = SubmitMatMulDurable(ln.Addr().String(), big, big, big, 2,
		SubmitOptions{Retries: 5, Backoff: time.Second, Timeout: time.Minute})
	if err == nil {
		t.Fatal("300 MiB job accepted for a 256 MiB frame limit")
	}
	if time.Since(began) > 500*time.Millisecond {
		t.Fatalf("size refusal took %v: it was retried", time.Since(began))
	}
	select {
	case <-dialled:
		t.Fatal("the client dialled before refusing the job")
	case <-time.After(20 * time.Millisecond):
	}
	if err := SubmitMatMulTCP(ln.Addr().String(), big, big, big, 2, time.Minute); err == nil {
		t.Fatal("one-shot submit accepted the oversized job")
	}
}
