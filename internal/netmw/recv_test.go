package netmw

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// blockFrameCase is one block-carrying frame's payload (CRC included,
// frame header stripped) and the streaming decoder that reads it.
type blockFrameCase struct {
	what    string
	payload []byte
	decode  func(f *frameReader) ([][]float64, error)
}

func blockFrameCases(q int) []blockFrameCase {
	rng := rand.New(rand.NewSource(11))
	ab := randBlocks(rng, 3, q)
	set := &engine.Set{
		K: 2, Cap: 9,
		A:    [][]float64{ab[0], nil},
		AIDs: []uint64{engine.ABlockID(1, 0, 2), engine.ABlockID(1, 1, 2)},
		B:    [][]float64{ab[1], ab[2]},
		BIDs: []uint64{0, engine.BBlockID(1, 2, 1)},
	}
	task := &engine.Assign{Rows: 2, Cols: 2, Q: q, Steps: 3,
		CFlags: []byte{engine.CShip, engine.CZero, engine.CShip, engine.CShip},
		Blocks: randBlocks(rng, 3, q)}
	taskHdr := make([]byte, taskHeaderLen)
	(&TaskHeader{Job: 1, Seq: 4, Steps: 3, Rows: 2, Cols: 2, Q: uint32(q)}).encode(taskHdr)
	res := &engine.Result{}
	resHdr := make([]byte, taskResultHeaderLen)
	(&TaskResultHeader{Job: 1, Seq: 4}).encode(resHdr)
	flush := &engine.FlushResult{
		IDs:    []uint64{engine.CBlockID(1, 0, 0), engine.CBlockID(1, 0, 1), engine.CBlockID(1, 1, 0)},
		Blocks: randBlocks(rng, 3, q),
	}
	body := func(frame []byte) []byte { return frame[msgHeaderLen:] }
	return []blockFrameCase{
		{"Set", body(oldSetFrame(set)), func(f *frameReader) ([][]float64, error) {
			var g geomFIFO
			g.push(2, 2, q, 3)
			s, err := readSet(f, &g)
			if err != nil {
				return nil, err
			}
			return append(s.A, s.B...), nil
		}},
		{"Task", body(oldAssignFrame(MsgTask, taskHdr, task)), func(f *frameReader) ([][]float64, error) {
			as, err := readTask(f)
			if err != nil {
				return nil, err
			}
			return as.Blocks, nil
		}},
		{"TaskResult", body(oldResultFrame(MsgTaskResult, resHdr, res)), func(f *frameReader) ([][]float64, error) {
			r, err := readTaskResult(f)
			if err != nil {
				return nil, err
			}
			return r.Blocks, nil
		}},
		{"FlushResult", body(oldFlushFrame(flush)), func(f *frameReader) ([][]float64, error) {
			fr, err := readFlushResult(f)
			if err != nil {
				return nil, err
			}
			return fr.Blocks, nil
		}},
	}
}

// TestBlockFramesFollowArrival is TestReadSubmissionFollowsArrival for
// the worker-link frames: every prefix of a Set, Task, TaskResult and
// FlushResult frame that declares its full length must fail, taking
// at most one block beyond the bytes that arrived, and handing every
// block it took back to the pool; the same prefix declared as a whole
// frame must fail too; the whole frame decodes to the sent blocks.
func TestBlockFramesFollowArrival(t *testing.T) {
	const q = 32
	const block = q * q * 8
	const slack = 8 << 10 // the frame reader's sink, scratch, error values
	for _, tc := range blockFrameCases(q) {
		pool := engine.NewBlockPool()
		f := &frameReader{pool: pool}
		decode := func(data []byte, n int) ([][]float64, error) {
			f.r = bytes.NewReader(data)
			f.start(n)
			return tc.decode(f)
		}
		for cut := 0; cut < len(tc.payload); cut += 61 {
			prefix := tc.payload[:cut]
			var err error
			got := leastAllocatedBy(func() {
				unpooled := &frameReader{r: bytes.NewReader(prefix)}
				unpooled.start(len(tc.payload))
				_, err = tc.decode(unpooled)
			})
			if err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", tc.what, cut, len(tc.payload))
			}
			if limit := uint64(cut + block + slack); got > limit {
				t.Fatalf("%s: prefix of %d bytes allocated %d, limit %d", tc.what, cut, got, limit)
			}
			// Blocks taken from a pool go back to it: decoding the cut
			// frame again and again takes the same buffers, it does not
			// allocate fresh ones.
			decode(prefix, len(tc.payload))
			leaked := allocatedBy(func() {
				for i := 0; i < 16; i++ {
					decode(prefix, len(tc.payload))
				}
			})
			if leaked > 4*block && !raceEnabled {
				t.Fatalf("%s: 16 decodes of a %d-byte prefix allocated %d bytes: blocks taken were not returned", tc.what, cut, leaked)
			}
			if _, err := decode(prefix, cut); err == nil {
				t.Fatalf("%s: frame cut to %d bytes decoded without error", tc.what, cut)
			}
		}
		blocks, err := decode(tc.payload, len(tc.payload))
		if err != nil {
			t.Fatalf("%s: the whole frame: %v", tc.what, err)
		}
		if f.left != 0 {
			t.Fatalf("%s: %d bytes of the whole frame left unread", tc.what, f.left)
		}
		for _, blk := range blocks {
			if blk != nil && len(blk) != q*q {
				t.Fatalf("%s: decoded a %d-element block", tc.what, len(blk))
			}
		}
	}
}

// TestResultFramesOnWire pins the one result protocol's frames: a
// MsgTaskResult is its header and checksum, and one carrying payload
// bytes is refused — or, corrupted, still classified as a checksum fault
// first; a MsgTask refuses the retired C flag 1; and the flagless
// MsgTask, in which every tile ships, still round-trips.
func TestResultFramesOnWire(t *testing.T) {
	pool := engine.NewBlockPool()
	hdr := make([]byte, taskResultHeaderLen)
	(&TaskResultHeader{Job: 3, Seq: 5, Attempt: 1, Updates: 16, ComputeNS: 99}).encode(hdr)
	ack := appendCRC(append([]byte(nil), hdr...), 0)
	res, err := readTaskResult(frameOver(ack, len(ack), pool))
	if err != nil || res.ID != (engine.AssignID{A: 3, B: 5, C: 1}) || res.Updates != 16 || res.ComputeNS != 99 {
		t.Fatalf("header-only result = %+v, %v", res, err)
	}
	carrying := appendCRC(matrix.AppendFloats(append([]byte(nil), hdr...), []float64{1, 2, 3, 4}), 0)
	if _, err := readTaskResult(frameOver(carrying, len(carrying), pool)); err == nil || errors.Is(err, ErrPayloadCRC) {
		t.Fatalf("result with payload bytes = %v, want refused as malformed", err)
	}
	carrying[taskResultHeaderLen+3] ^= 0x10
	if _, err := readTaskResult(frameOver(carrying, len(carrying), pool)); !errors.Is(err, ErrPayloadCRC) {
		t.Fatalf("corrupted result with payload bytes = %v, want ErrPayloadCRC", err)
	}

	th := make([]byte, taskHeaderLen)
	(&TaskHeader{Job: 1, Seq: 2, Steps: 1, Rows: 1, Cols: 1, Q: 2}).encode(th)
	retired := encodeAssignBody(th, []byte{1}, nil)
	if _, err := readTask(frameOver(retired, len(retired), pool)); err == nil || errors.Is(err, ErrPayloadCRC) {
		t.Fatalf("task with C flag 1 = %v, want refused as malformed", err)
	}

	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	server, worker := NewServerTransport(local, pool, nil), NewClusterWorkerTransport(remote, pool)
	tiles := randBlocks(rand.New(rand.NewSource(3)), 2, 2)
	sent := make(chan error, 1)
	go func() {
		sent <- server.Send(&engine.Assign{ID: engine.AssignID{A: 7, B: 1}, I0: 1, J0: 2, Rows: 1, Cols: 2, Q: 2, Steps: 1,
			Blocks: [][]float64{append([]float64(nil), tiles[0]...), append([]float64(nil), tiles[1]...)}})
	}()
	m, err := worker.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	as := m.(*engine.Assign)
	if as.ID != (engine.AssignID{A: 7, B: 1}) || as.I0 != 1 || as.J0 != 2 || len(as.CFlags) != 0 || len(as.Blocks) != 2 {
		t.Fatalf("flagless task decoded as %+v", as)
	}
	for n, blk := range as.Blocks {
		for e := range blk {
			if blk[e] != tiles[n][e] {
				t.Fatalf("tile %d element %d = %g, want %g", n, e, blk[e], tiles[n][e])
			}
		}
	}
}

// parkSet holds the first unowned Set one worker's session sends inside
// Send, until open is closed: a server session stuck writing a Set that
// references a job's own operand blocks.
type parkSet struct {
	engine.Transport
	parked chan [][]float64 // the parked Set's blocks, once
	open   chan struct{}
	once   bool
}

func (p *parkSet) Send(m engine.Msg) error {
	if set, ok := m.(*engine.Set); ok && !set.Owned && !p.once {
		p.once = true
		var blocks [][]float64
		for _, blk := range append(append([][]float64(nil), set.A...), set.B...) {
			if blk != nil {
				blocks = append(blocks, blk)
			}
		}
		p.parked <- blocks
		<-p.open
	}
	return p.Transport.Send(m)
}

// TestParkedSetPinsItsJobsOperands is the hazard the feed-held release
// rule exists for: a session parked inside Send of a by-reference Set,
// its worker declared lost, the job finished on another worker and its
// client answered. Until that Send returns, none of the job's pooled A/B
// blocks may reach the pool — the pool's next taker would write into
// the bytes the parked write is still sending.
func TestParkedSetPinsItsJobsOperands(t *testing.T) {
	checkGoroutines(t)
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	park := &parkSet{parked: make(chan [][]float64, 1), open: make(chan struct{})}
	srv, err := ServeCluster(cl, ClusterServerConfig{
		Addr: "127.0.0.1:0",
		WrapTransport: func(name string, tr engine.Transport) engine.Transport {
			if name == "parked" {
				park.Transport = tr
				return park
			}
			return tr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cl.Close(); srv.Close() }()
	var unpark sync.Once
	release := func() { unpark.Do(func() { close(park.open) }) }
	defer release() // before the server's Close, which waits for the session
	addr := srv.Addr()
	parkedDone := make(chan struct{})
	go func() {
		defer close(parkedDone)
		RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "parked", Memory: 64})
	}()
	c, a, b, ref := matmulInputs(t, 16, 8, 16, 4, 131)
	done := make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(addr, c, a, b, 2, time.Minute) }()

	var inFlight [][]float64
	select {
	case inFlight = <-park.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the parked worker never sent a by-reference set")
	}
	park.Transport.Close() // the connection drops: the parked session's worker is lost
	go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "healthy", Memory: 64})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result differs by %g", d)
	}
	// The client has its answer, so an unpinned job is released by now.
	if st := cl.Jobs()[0]; st.State != cluster.Done || st.Retained < 2 {
		t.Fatalf("job %+v let its operands go while a parked Send still references them", st)
	}
	sent := make(map[*float64]bool)
	for _, blk := range inFlight {
		sent[&blk[0]] = true
	}
	pool := cl.BlockPool()
	for i := 0; i < 64; i++ {
		if got := pool.Get(4 * 4); sent[&got[0]] {
			t.Fatal("the pool handed out a block a parked Send is still writing")
		}
	}
	release()
	waitReleased(t, cl, func(cluster.Status) int { return 0 })
	cl.Close()
	<-parkedDone
}
