package netmw

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// TestRegisterRefusesOtherVersions: a registration without a protocol
// version (a build that predates it), with version 0, with the version
// before this one or with a version from the future is refused at join within a second: the master
// answers with a Bye naming its own version and hangs up, and the
// worker never joins.
func TestRegisterRefusesOtherVersions(t *testing.T) {
	cl, srv := startCluster(t)
	ri := RegisterInfo{Name: "other", Mem: 64, Slots: 1}
	for _, tc := range []struct {
		what    string
		payload []byte
	}{
		{"no version", ri.encode()[:registerFixedLen+len(ri.Name)]},
		{"version 0", ri.encode()},
		{"an earlier version", (&RegisterInfo{Name: "other", Mem: 64, Slots: 1, Version: ProtocolVersion - 1}).encode()},
		{"a later version", (&RegisterInfo{Name: "other", Mem: 64, Slots: 1, Version: ProtocolVersion + 1}).encode()},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(time.Second))
		if err := writeMsg(conn, MsgRegister, tc.payload); err != nil {
			t.Fatal(err)
		}
		mt, payload, err := readMsg(conn)
		if err != nil || mt != MsgBye || len(payload) < 4 || binary.LittleEndian.Uint32(payload) != ProtocolVersion {
			t.Fatalf("%s: the master answered %d %q, %v; want a Bye naming version %d", tc.what, mt, payload, err, ProtocolVersion)
		}
		if _, _, err := readMsg(conn); !errors.Is(err, io.EOF) {
			t.Fatalf("%s: after the refusal the master sent more or kept the line open: %v", tc.what, err)
		}
		conn.Close()
	}
	if ws := cl.Workers(); len(ws) != 0 {
		t.Fatalf("refused workers joined: %+v", ws)
	}
}

// TestRunClusterWorkerRefusedByOtherVersion: a master of another
// protocol version refuses the worker at join, and RunClusterWorker
// returns ErrProtocolVersion naming both versions after that one
// session, whatever its reconnect budget.
func TestRunClusterWorkerRefusedByOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const other = ProtocolVersion + 1
	refused := make(chan RegisterInfo, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var ri RegisterInfo
			if mt, payload, err := readMsg(conn); err == nil && mt == MsgRegister && ri.decode(payload) == nil {
				refused <- ri
			}
			bye := binary.LittleEndian.AppendUint32(nil, other)
			writeMsg(conn, MsgBye, append(bye, "speaks another version"...))
			conn.Close()
		}
	}()
	rep, err := RunClusterWorker(ClusterWorkerConfig{
		Addr: ln.Addr().String(), Name: "w", Memory: 64, Reconnect: 5, Backoff: time.Millisecond,
	})
	if !errors.Is(err, ErrProtocolVersion) || rep.Sessions != 1 {
		t.Fatalf("RunClusterWorker = %v after %d sessions, want ErrProtocolVersion after 1", err, rep.Sessions)
	}
	if want := fmt.Sprintf("version %d, the master %d", ProtocolVersion, other); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name both versions (%q)", err, want)
	}
	if ri := <-refused; ri.Version != ProtocolVersion {
		t.Fatalf("the worker registered with version %d, want %d", ri.Version, ProtocolVersion)
	}
}

// TestSubmitRefusesOtherVersions: a submission whose header leads with
// another protocol version — a client from before the version existed,
// whose header leads with its job kind, or one from the future — gets a
// JobDone error naming both versions, with the refusal code, and no job
// is accepted from its misread operands.
func TestSubmitRefusesOtherVersions(t *testing.T) {
	cl, srv := startCluster(t)
	c, a, b, _ := matmulInputs(t, 4, 4, 4, 2, 3)
	operands := oldSubmitPayload(JobHeader{}, c, a, b)[jobHeaderLen:]
	var old []byte // kind, R, T, S, Q, µ, then the 8-byte key
	for _, v := range []uint32{WireMatMul, 2, 2, 2, 2, 1} {
		old = binary.LittleEndian.AppendUint32(old, v)
	}
	old = append(binary.LittleEndian.AppendUint64(old, 0), operands...)
	later := oldSubmitPayload(JobHeader{Kind: WireMatMul, R: 2, T: 2, S: 2, Q: 2, Mu: 1}, c, a, b)
	binary.LittleEndian.PutUint32(later, ProtocolVersion+1)
	for _, tc := range []struct {
		what    string
		version uint32 // what the master reads as the version
		payload []byte
	}{
		{"a header without a version", WireMatMul, old},
		{"a later version", ProtocolVersion + 1, later},
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeMsg(conn, MsgSubmit, tc.payload); err != nil {
			t.Fatal(err)
		}
		mt, resp, err := readMsg(conn)
		conn.Close()
		var hdr JobDoneHeader
		if err != nil || mt != MsgJobDone || hdr.decode(resp) != nil || hdr.Code != codeVersion {
			t.Fatalf("%s: the master answered %d %q, %v; want a JobDone with code %d", tc.what, mt, resp, err, codeVersion)
		}
		if want := fmt.Sprintf("version %d, this master %d", tc.version, ProtocolVersion); !strings.Contains(string(resp), want) {
			t.Fatalf("%s: refusal %q does not name both versions (%q)", tc.what, resp[jobDoneHeaderLen:], want)
		}
	}
	if js := cl.Jobs(); len(js) != 0 {
		t.Fatalf("refused submissions became jobs: %+v", js)
	}
}

// TestSubmitReturnsErrProtocolVersion: a master that refuses the
// submission's protocol version ends a durable submit at once with
// ErrProtocolVersion, whatever its retry budget.
func TestSubmitReturnsErrProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var attempts atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			attempts.Add(1)
			readMsg(conn)
			msg := "netmw: protocol version mismatch: the submission speaks version 2, this master 3"
			conn.Write(append(jobDoneHead(0, codeVersion, len(msg)), msg...))
			conn.Close()
		}
	}()
	c, a, b, _ := matmulInputs(t, 4, 4, 4, 2, 3)
	err = SubmitMatMulDurable(ln.Addr().String(), c, a, b, 1, SubmitOptions{Retries: 5, Backoff: time.Millisecond})
	if !errors.Is(err, ErrProtocolVersion) || attempts.Load() != 1 {
		t.Fatalf("submit = %v after %d attempts, want ErrProtocolVersion after 1", err, attempts.Load())
	}
	if !strings.Contains(err.Error(), "version 2, this master 3") {
		t.Fatalf("error %q does not name both versions", err)
	}
}

var updateFrames = flag.Bool("update-frames", false, "re-record testdata/frames.golden")

const framesGolden = "testdata/frames.golden"

// frameConn is a net.Conn over memory: writes are recorded, reads come
// from in. Only Read and Write are ever called.
type frameConn struct {
	net.Conn
	in  io.Reader
	out bytes.Buffer
}

func (c *frameConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *frameConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// goldenOperand is a small deterministic blocked matrix.
func goldenOperand(br, bc, q int, seed int64) *matrix.Blocked {
	d := matrix.NewDense(br*q, bc*q)
	matrix.DeterministicFill(d, seed)
	return matrix.Partition(d, q)
}

// goldenFrames encodes one frame of every message type still on the
// wire, each through the production code path that sends it.
func goldenFrames(t *testing.T) map[string][]byte {
	t.Helper()
	frames := make(map[string][]byte)
	record := func(name string, send func(c *frameConn) error) {
		c := &frameConn{}
		if err := send(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames[name] = c.out.Bytes()
	}
	worker := func(c *frameConn) *clusterWorkerTransport { return newClusterWorkerTransport(c, nil) }
	server := func(c *frameConn) *serverTransport { return newServerTransport(c, nil, nil, nil) }
	record("Register", func(c *frameConn) error {
		return worker(c).sendRegister(RegisterInfo{Name: "w1", Mem: 64, Slots: 2, Version: ProtocolVersion})
	})
	record("Heartbeat", func(c *frameConn) error { return worker(c).sendHeartbeat() })
	record("Task", func(c *frameConn) error {
		return server(c).Send(&engine.Assign{ID: engine.AssignID{A: 3, B: 5, C: 1}, I0: 2, J0: 4, Rows: 1, Cols: 2, Q: 2, Steps: 1,
			CFlags: []byte{engine.CShip, engine.CZero}, Blocks: [][]float64{{1, 2, 3, 4}}, Drop: []uint32{1, 2}})
	})
	record("Set", func(c *frameConn) error {
		return server(c).Send(&engine.Set{K: 0, Cap: 9,
			A: [][]float64{{5, 6, 7, 8}}, AIDs: []uint64{engine.ABlockID(3, 2, 0)},
			B: [][]float64{nil, {9, 10, 11, 12}}, BIDs: []uint64{engine.BBlockID(3, 0, 4), engine.BBlockID(3, 0, 5)}})
	})
	record("TaskResult", func(c *frameConn) error {
		return worker(c).Send(&engine.Result{ID: engine.AssignID{A: 3, B: 5, C: 1}, Updates: 2, ComputeNS: 99,
			Blocks: [][]float64{{1.5, 2, 3, 4}, {-1, 0, 0.25, 8}}})
	})
	record("Bye", func(c *frameConn) error { return server(c).Send(engine.Bye{}) })
	record("Refusal", func(c *frameConn) error {
		_, err := c.Write(refusalFrame("worker \"w1\" speaks protocol version 0, this master 1"))
		return err
	})
	record("Submit", func(c *frameConn) error {
		sub := matMulSubmission(goldenOperand(1, 1, 2, 1), goldenOperand(1, 2, 2, 2), goldenOperand(2, 1, 2, 3), 1, 0xfeed)
		frame, err := sub.frameLen()
		if err != nil {
			return err
		}
		return sub.send(c, frame)
	})
	record("JobDone", func(c *frameConn) error {
		res := goldenOperand(1, 1, 2, 4)
		return writeGathered(c, jobDoneHead(7, 0, blockedBytes(res)), res)
	})
	return frames
}

// goldenOrder is the order of the golden file's lines.
var goldenOrder = []string{"Register", "Heartbeat", "Task", "Set", "TaskResult", "Bye", "Refusal", "Submit", "JobDone"}

// readGolden reads the golden file: the protocol version it was
// recorded with, and one hex-encoded frame per message type.
func readGolden(t *testing.T) (uint32, map[string][]byte) {
	t.Helper()
	f, err := os.Open(framesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var version uint32
	frames := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if name == "version" {
			if _, err := fmt.Sscan(value, &version); err != nil {
				t.Fatalf("%s: %q: %v", framesGolden, line, err)
			}
			continue
		}
		b, err := hex.DecodeString(value)
		if err != nil {
			t.Fatalf("%s: %s: %v", framesGolden, name, err)
		}
		frames[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return version, frames
}

// TestGoldenFrames pins the worker protocol's bytes to its version:
// testdata/frames.golden holds one encoded frame per message type in
// use, recorded with the ProtocolVersion it belongs to. A frame whose
// bytes change while the version stays the same fails here — bump
// ProtocolVersion and re-record with -update-frames. Every golden
// frame must also decode back to the message it was encoded from.
func TestGoldenFrames(t *testing.T) {
	got := goldenFrames(t)
	if *updateFrames {
		var b strings.Builder
		b.WriteString("# One encoded frame per netmw message type, hex, as TestGoldenFrames\n")
		b.WriteString("# re-records them with -update-frames. The bytes belong to the version below.\n")
		fmt.Fprintf(&b, "version %d\n", ProtocolVersion)
		for _, name := range goldenOrder {
			fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(got[name]))
		}
		if err := os.WriteFile(framesGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	version, want := readGolden(t)
	if version != ProtocolVersion {
		t.Fatalf("%s was recorded for protocol version %d, this build speaks %d: re-record it with -update-frames",
			framesGolden, version, ProtocolVersion)
	}
	for _, name := range goldenOrder {
		if !bytes.Equal(got[name], want[name]) {
			t.Errorf("%s frame changed under protocol version %d: bump ProtocolVersion and re-record (-update-frames)\n got %x\nwant %x",
				name, version, got[name], want[name])
		}
	}
	decodeGolden(t, want)
}

// decodeGolden decodes every golden frame with the code that receives
// it and checks it is the message goldenFrames encoded.
func decodeGolden(t *testing.T, frames map[string][]byte) {
	t.Helper()
	pool := engine.NewBlockPool()
	over := func(names ...string) *frameConn {
		var in []byte
		for _, n := range names {
			in = append(in, frames[n]...)
		}
		return &frameConn{in: bytes.NewReader(in)}
	}
	var ri RegisterInfo
	mt, payload, err := readMsg(bytes.NewReader(frames["Register"]))
	if err != nil || mt != MsgRegister || ri.decode(payload) != nil ||
		ri != (RegisterInfo{Name: "w1", Mem: 64, Slots: 2, Version: ProtocolVersion}) {
		t.Errorf("Register decodes as %d %+v, %v", mt, ri, err)
	}
	if mt, payload, err := readMsg(bytes.NewReader(frames["Heartbeat"])); err != nil || mt != MsgHeartbeat || len(payload) != 0 {
		t.Errorf("Heartbeat decodes as %d %x, %v", mt, payload, err)
	}

	wk := newClusterWorkerTransport(over("Task", "Set", "Bye", "Refusal"), pool)
	m, err := wk.Recv()
	as, _ := m.(*engine.Assign)
	if err != nil || as == nil || as.ID != (engine.AssignID{A: 3, B: 5, C: 1}) || as.I0 != 2 || as.J0 != 4 ||
		as.Rows != 1 || as.Cols != 2 || as.Q != 2 || as.Steps != 1 ||
		!bytes.Equal(as.CFlags, []byte{engine.CShip, engine.CZero}) || len(as.Blocks) != 1 || as.Blocks[0][3] != 4 ||
		!slices.Equal(as.Drop, []uint32{1, 2}) {
		t.Errorf("Task decodes as %+v, %v", m, err)
	}
	m, err = wk.Recv()
	set, _ := m.(*engine.Set)
	if err != nil || set == nil || set.K != 0 || set.Cap != 9 || len(set.A) != 1 || set.A[0][0] != 5 ||
		len(set.B) != 2 || set.B[0] != nil || set.B[1][3] != 12 ||
		set.AIDs[0] != engine.ABlockID(3, 2, 0) || set.BIDs[1] != engine.BBlockID(3, 0, 5) {
		t.Errorf("Set decodes as %+v, %v", m, err)
	}
	if m, err := wk.Recv(); err != nil || m != (engine.Bye{}) {
		t.Errorf("Bye decodes as %#v, %v", m, err)
	}
	if _, err := wk.Recv(); !errors.Is(err, ErrProtocolVersion) ||
		!strings.Contains(err.Error(), fmt.Sprintf("the master %d", ProtocolVersion)) {
		t.Errorf("Refusal decodes as %v, want ErrProtocolVersion naming version %d", err, ProtocolVersion)
	}

	m, err = newServerTransport(over("TaskResult"), nil, pool, nil).Recv()
	res, _ := m.(*engine.Result)
	if err != nil || res == nil || res.ID != (engine.AssignID{A: 3, B: 5, C: 1}) || res.Updates != 2 || res.ComputeNS != 99 ||
		len(res.Blocks) != 2 || res.Blocks[0][0] != 1.5 || res.Blocks[1][2] != 0.25 {
		t.Errorf("TaskResult decodes as %+v, %v", m, err)
	}

	r := bytes.NewReader(frames["Submit"])
	var hdr [msgHeaderLen]byte
	mt, n, err := readMsgHeader(r, &hdr)
	if err != nil || mt != MsgSubmit {
		t.Fatalf("Submit frame header: %d, %v", mt, err)
	}
	spec, key, err := readSubmission(r, n, pool)
	if err != nil || key != 0xfeed || spec.Kind != cluster.MatMul || spec.Mu != 1 ||
		!spec.A.Equal(goldenOperand(1, 2, 2, 2), 0) || !spec.B.Equal(goldenOperand(2, 1, 2, 3), 0) ||
		!spec.C.Equal(goldenOperand(1, 1, 2, 1), 0) {
		t.Errorf("Submit decodes as key %#x %+v, %v", key, spec, err)
	}

	r = bytes.NewReader(frames["JobDone"])
	mt, n, err = readMsgHeader(r, &hdr)
	var done JobDoneHeader
	body := make([]byte, n)
	if err == nil {
		_, err = io.ReadFull(r, body)
	}
	if err != nil || mt != MsgJobDone || done.decode(body) != nil || done != (JobDoneHeader{Job: 7}) {
		t.Fatalf("JobDone decodes as %d %+v, %v", mt, done, err)
	}
	want := goldenOperand(1, 1, 2, 4).Blocks[0].Data
	got := make([]float64, len(want))
	matrix.DecodeFloatsInto(got, body[jobDoneHeaderLen:])
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("JobDone result element %d = %g, want %g", i, got[i], want[i])
		}
	}
}
