package netmw

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
)

// launch runs a master and n in-process workers over loopback TCP and
// returns the master report.
func launch(t *testing.T, c, a, b *matrix.Blocked, n, mu, stage int) MasterReport {
	return launchWith(t, c, a, b, n, mu, stage, false, 1)
}

func launchWith(t *testing.T, c, a, b *matrix.Blocked, n, mu, stage int, prefetch bool, cores int) MasterReport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var rep MasterReport
	var masterErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		cfg := MasterConfig{Workers: n, Mu: mu, Timeout: 30 * time.Second}
		rep, masterErr = ServeListener(c, a, b, cfg, ln)
	}()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{Addr: addr, Memory: 100, StageCap: stage, Prefetch: prefetch, Cores: cores, Timeout: 30 * time.Second}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	<-done
	wg.Wait()
	if masterErr != nil {
		t.Fatalf("master: %v", masterErr)
	}
	return rep
}

func build(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 11)
	matrix.DeterministicFill(bd, 12)
	matrix.DeterministicFill(cd, 13)
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

func TestDistributedSingleWorker(t *testing.T) {
	a, b, c, want := build(t, 4, 3, 4, 8)
	rep := launch(t, c, a, b, 1, 2, 2)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if rep.Result.Blocks == 0 {
		t.Fatal("no blocks accounted")
	}
}

func TestDistributedThreeWorkers(t *testing.T) {
	a, b, c, want := build(t, 6, 4, 9, 4)
	rep := launch(t, c, a, b, 3, 2, 2)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if rep.Result.Enrolled != 3 {
		t.Fatalf("enrolled %d", rep.Result.Enrolled)
	}
}

func TestDistributedRaggedNoOverlap(t *testing.T) {
	a, b, c, want := build(t, 5, 2, 7, 4)
	launch(t, c, a, b, 2, 3, 1)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
}

// TestDistributedPipelined drives the prefetching, multi-core worker
// pipeline: chunks double-buffer over the socket while the kernel shards
// updates across goroutines. The result must equal the oracle exactly
// (same accumulation order as the sequential kernel).
func TestDistributedPipelined(t *testing.T) {
	a, b, c, want := build(t, 6, 4, 9, 4)
	rep := launchWith(t, c, a, b, 2, 2, 2, true, 4)
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
	if rep.Result.Blocks == 0 {
		t.Fatal("no blocks accounted")
	}
	// single worker with prefetch drains the whole pool alone
	a2, b2, c2, want2 := build(t, 5, 2, 7, 4)
	launchWith(t, c2, a2, b2, 1, 3, 1, true, 2)
	if !c2.Equal(want2, 1e-9) {
		t.Fatal("wrong product (single prefetching worker)")
	}
}

func TestServeValidation(t *testing.T) {
	a, b, c, _ := build(t, 2, 2, 2, 4)
	if _, err := Serve(c, a, b, MasterConfig{Addr: "127.0.0.1:0", Workers: 0, Mu: 1}); err == nil {
		t.Fatal("0 workers accepted")
	}
	if _, err := Serve(c, a, b, MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Mu: 0}); err == nil {
		t.Fatal("µ=0 accepted")
	}
	bad := matrix.NewBlocked(3, 3, 4)
	if _, err := Serve(c, bad, b, MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Mu: 1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestMasterSurvivesShortResult sends a malformed (3-byte) MsgResult
// frame from a hand-rolled peer: the master must fail the run with an
// error, not panic on the undersized payload.
func TestMasterSurvivesShortResult(t *testing.T) {
	a, b, c, _ := build(t, 2, 2, 2, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() {
		_, err := ServeListener(c, a, b, MasterConfig{Workers: 1, Mu: 1, Timeout: 10 * time.Second}, ln)
		done <- err
	}()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeMsg(conn, MsgReq, []byte{ReqChunk}); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, MsgReq, []byte{ReqResult}); err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, MsgResult, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("master accepted a 3-byte result payload")
	}
}

func TestWorkerDialError(t *testing.T) {
	if _, err := RunWorker(WorkerConfig{Addr: "127.0.0.1:1", Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestChunkHeaderRoundTrip(t *testing.T) {
	h := ChunkHeader{ID: 1, I0: 2, J0: 3, Rows: 4, Cols: 5, T: 6, Q: 7}
	buf := make([]byte, chunkHeaderLen)
	h.encode(buf)
	var g ChunkHeader
	if err := g.decode(buf); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("roundtrip %+v != %+v", g, h)
	}
	if err := g.decode(buf[:10]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	in := []float64{0, 1, -2.5, 3.14159, -1e300}
	buf := putFloats(nil, in)
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

func TestReadMsgRejectsOversizedPayload(t *testing.T) {
	// a corrupted length prefix must not provoke a giant allocation
	var buf [5]byte
	buf[0] = byte(MsgJob)
	buf[1] = 0xff
	buf[2] = 0xff
	buf[3] = 0xff
	buf[4] = 0x7f
	if _, _, err := readMsg(bytesReader(buf[:])); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// bytesReader avoids importing bytes for one call site.
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errEOF{}
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

func bytesReader(b []byte) *sliceReader { return &sliceReader{b: b} }

// TestMasterLetsUnneededWorkerHangUpFirst is R4's scenario made causal:
// a job one worker finishes alone, and a second worker so slow that its
// Hello and first request are only written once the master has already
// said Bye. The master used to close that socket with the frames
// unread, which resets the connection and fails the worker's next write
// (EPIPE) on a run that succeeded. Now Bye goes out and the master
// keeps reading until the worker hangs up: the late frames are written
// without error, and ServeListener does not return while the worker
// still holds its end.
func TestMasterLetsUnneededWorkerHangUpFirst(t *testing.T) {
	a, b, c, want := build(t, 2, 2, 2, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() {
		_, err := ServeListener(c, a, b, MasterConfig{Workers: 2, Mu: 2, Timeout: 30 * time.Second}, ln)
		done <- err
	}()
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{Addr: addr, Memory: 100, StageCap: 2, Timeout: 30 * time.Second})
		fast <- err
	}()
	if mt, _, err := readMsg(slow); err != nil || mt != MsgBye {
		t.Fatalf("slow worker read %v, %v; want Bye", mt, err)
	}
	if err := <-fast; err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	// The job is done and the master has said goodbye; only now does the
	// slow worker get its first frames out.
	hello := []byte{100, 0, 0, 0}
	for i := 0; i < 3; i++ {
		if err := writeMsg(slow, MsgHello, hello); err != nil {
			t.Fatalf("late hello: %v", err)
		}
		if err := writeMsg(slow, MsgReq, []byte{ReqChunk}); err != nil {
			t.Fatalf("late request %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("master returned (%v) before its worker hung up", err)
	default:
	}
	slow.Close()
	if err := <-done; err != nil {
		t.Fatalf("master: %v", err)
	}
	if !c.Equal(want, 1e-9) {
		t.Fatal("wrong product")
	}
}
