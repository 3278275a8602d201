package netmw

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// The bulk frames as they were assembled before block payloads were sent
// from block memory: every block copied into one frame buffer with
// putFloats, the checksum appended over the finished payload. Product
// code no longer builds a frame this way; the fuzz seeds and the
// byte-identity test below still speak it.

// appendCRC appends the CRC32C of buf[start:] to buf as 4 LE bytes.
func appendCRC(buf []byte, start int) []byte {
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(buf[start:], crcTable))
	return append(buf, sum[:]...)
}

// appendDrops appends an assignment's drop list: the uint16 count then
// the uint32 job numbers.
func appendDrops(buf []byte, drops []uint32) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(drops)))
	for _, job := range drops {
		buf = binary.LittleEndian.AppendUint32(buf, job)
	}
	return buf
}

// appendCFlags appends an assignment's result-residency tail prefix:
// the uint16 flag count then the flag bytes.
func appendCFlags(buf []byte, flags []byte) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(flags)))
	buf = append(buf, n[:]...)
	return append(buf, flags...)
}

// oldFrame frames a CRC-trailed payload the old way: header, payload
// assembled by fill in one buffer, checksum.
func oldFrame(t MsgType, fill func(buf []byte) []byte) []byte {
	buf := []byte{byte(t), 0, 0, 0, 0}
	buf = appendCRC(fill(buf), msgHeaderLen)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-msgHeaderLen))
	return buf
}

func oldBlocks(buf []byte, blocks [][]float64) []byte {
	for _, blk := range blocks {
		buf = matrix.AppendFloats(buf, blk)
	}
	return buf
}

func oldSetFrame(set *engine.Set) []byte {
	return oldFrame(MsgSet, func(buf []byte) []byte {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(set.K))
		buf = binary.LittleEndian.AppendUint32(buf, capOnWire(set.Cap))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(set.A)))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(set.B)))
		var payload [][]float64
		for half, blocks := range [][][]float64{set.A, set.B} {
			ids := set.AIDs
			if half == 1 {
				ids = set.BIDs
			}
			for i, blk := range blocks {
				buf = binary.LittleEndian.AppendUint64(buf, ids[i])
				if blk == nil {
					buf = append(buf, 0)
					continue
				}
				buf = append(buf, 1)
				payload = append(payload, blk)
			}
		}
		return oldBlocks(buf, payload)
	})
}

func oldAssignFrame(t MsgType, hdr []byte, m *engine.Assign) []byte {
	return oldFrame(t, func(buf []byte) []byte {
		return oldBlocks(appendCFlags(appendDrops(append(buf, hdr...), m.Drop), m.CFlags), m.Blocks)
	})
}

func oldResultFrame(hdr []byte, m *engine.Result) []byte {
	return oldFrame(MsgTaskResult, func(buf []byte) []byte {
		n := 0
		if len(m.Blocks) > 0 {
			n = len(m.Blocks[0])
		}
		buf = binary.LittleEndian.AppendUint32(append(buf, hdr...), uint32(len(m.Blocks)))
		return oldBlocks(binary.LittleEndian.AppendUint32(buf, uint32(n)), m.Blocks)
	})
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if b = <-accepted; b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func randBlocks(rng *rand.Rand, n, q int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, q*q)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestGatheredFramesByteIdentical pins the wire: every checksummed
// frame — Set, Task, and TaskResult with and without a tile — written
// from block memory is byte for byte the frame the copying encoder produced,
// over TCP (writev) and over net.Pipe (the per-buffer fallback), at a
// block size below and one above a socket buffer. And the blocks are
// read only until Send returns: each case scribbles over every block it
// sent the moment Send is back (for owned messages that is what the
// pool's next taker would do), while the peer is still draining the
// socket, and the peer must see none of it.
func TestGatheredFramesByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conns := map[string]func(*testing.T) (net.Conn, net.Conn){
		"tcp":  tcpPair,
		"pipe": func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() },
	}
	for name, pair := range conns {
		for _, q := range []int{3, 256} {
			ab := randBlocks(rng, 5, q)
			set := &engine.Set{
				K: 7, Cap: 11,
				A:    [][]float64{ab[0], nil, ab[1]},
				AIDs: []uint64{engine.ABlockID(1, 0, 7), engine.ABlockID(1, 1, 7), 0},
				B:    [][]float64{nil, ab[2]},
				BIDs: []uint64{engine.BBlockID(1, 7, 0), engine.BBlockID(1, 7, 1)},
			}
			unflagged := &engine.Assign{ID: engine.AssignID{A: 9, B: 2}, I0: 2, J0: 4, Rows: 1, Cols: 2, Q: q, Steps: 3, Blocks: randBlocks(rng, 2, q)}
			task := &engine.Assign{
				ID: engine.AssignID{A: 3, B: 5, C: 1}, I0: 1, J0: 0, Rows: 2, Cols: 2, Q: q, Steps: 4,
				CFlags: []byte{engine.CShip, engine.CZero, engine.CZero, engine.CShip},
				Blocks: randBlocks(rng, 2, q),
				Drop:   []uint32{1, 2},
			}
			empty := &engine.Result{ID: engine.AssignID{A: 9, B: 2}}
			result := &engine.Result{ID: engine.AssignID{A: 3, B: 6, C: 1}, Updates: 4, ComputeNS: 99,
				Blocks: randBlocks(rng, 3, q)}

			unflaggedHdr := make([]byte, taskHeaderLen)
			(&TaskHeader{Job: 9, Seq: 2, Steps: 3, I0: 2, J0: 4, Rows: 1, Cols: 2, Q: uint32(q)}).encode(unflaggedHdr)
			taskHdr := make([]byte, taskHeaderLen)
			(&TaskHeader{Job: 3, Seq: 5, Attempt: 1, Steps: 4, I0: 1, J0: 0, Rows: 2, Cols: 2, Q: uint32(q)}).encode(taskHdr)
			emptyHdr := make([]byte, taskResultHeaderLen)
			(&TaskResultHeader{Job: 9, Seq: 2}).encode(emptyHdr)
			resHdr := make([]byte, taskResultHeaderLen)
			(&TaskResultHeader{Job: 3, Seq: 6, Attempt: 1, Updates: 4, ComputeNS: 99}).encode(resHdr)

			pool := engine.NewBlockPool()
			cases := []struct {
				what   string
				mk     func(net.Conn) engine.Transport
				msg    engine.Msg
				want   []byte
				blocks [][]float64
			}{
				{"server Set", func(c net.Conn) engine.Transport { return NewServerTransport(c, pool, nil) }, set, oldSetFrame(set), ab[:3]},
				{"server Task without flags", func(c net.Conn) engine.Transport { return NewServerTransport(c, pool, nil) }, unflagged, oldAssignFrame(MsgTask, unflaggedHdr, unflagged), unflagged.Blocks},
				{"server Task", func(c net.Conn) engine.Transport { return NewServerTransport(c, pool, nil) }, task, oldAssignFrame(MsgTask, taskHdr, task), task.Blocks},
				{"cluster worker tileless TaskResult", func(c net.Conn) engine.Transport { return NewClusterWorkerTransport(c, pool) }, empty, oldResultFrame(emptyHdr, empty), nil},
				{"cluster worker TaskResult", func(c net.Conn) engine.Transport { return NewClusterWorkerTransport(c, pool) }, result, oldResultFrame(resHdr, result), result.Blocks},
			}
			for _, tc := range cases {
				local, remote := pair(t)
				tr := tc.mk(local)
				got := make([]byte, len(tc.want))
				read := make(chan error, 1)
				go func() {
					_, err := io.ReadFull(remote, got)
					read <- err
				}()
				if err := tr.Send(tc.msg); err != nil {
					t.Fatalf("%s q=%d %s: send: %v", name, q, tc.what, err)
				}
				for _, blk := range tc.blocks {
					for i := range blk {
						blk[i] = -1
					}
				}
				if err := <-read; err != nil {
					t.Fatalf("%s q=%d %s: read: %v", name, q, tc.what, err)
				}
				if !bytes.Equal(got, tc.want) {
					at := 0
					for at < len(got) && got[at] == tc.want[at] {
						at++
					}
					t.Fatalf("%s q=%d %s: frame differs from the copying encoder's at byte %d of %d", name, q, tc.what, at, len(got))
				}
				local.Close()
				remote.Close()
			}
		}
	}
}

// gateConn holds every Write until open is closed, and says when the
// first one arrives.
type gateConn struct {
	net.Conn
	entered chan struct{} // buffered 1: a Write is waiting at the gate
	open    chan struct{}
}

func (g *gateConn) Write(p []byte) (int, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return g.Conn.Write(p)
}

// TestOwnedBlocksReleasedAfterWrite pins the release order: an owned
// message's blocks enter the pool only once the frame is written, so
// what the pool hands out next can never be bytes still waiting in a
// gathered write. (They used to be released at encode time, which was
// safe only because encoding copied them.) The write is held at a gate
// with the frame fully assembled; nothing the pool hands out meanwhile
// may be one of the blocks in flight.
func TestOwnedBlocksReleasedAfterWrite(t *testing.T) {
	const q = 16
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	gate := &gateConn{Conn: local, entered: make(chan struct{}, 1), open: make(chan struct{})}
	pool := engine.NewBlockPool()
	tr := NewClusterWorkerTransport(gate, pool)
	blocks := [][]float64{pool.Get(q * q), pool.Get(q * q), pool.Get(q * q), pool.Get(q * q)}
	inFlight := map[*float64]bool{}
	for n, blk := range blocks {
		inFlight[&blk[0]] = true
		for i := range blk {
			blk[i] = float64(n + 1)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- tr.Send(&engine.Result{ID: engine.AssignID{A: 1}, Blocks: blocks}) }()
	<-gate.entered
	for i := 0; i < 16; i++ {
		if got := pool.Get(q * q); inFlight[&got[0]] {
			t.Fatal("pool handed out a block whose frame is still being written")
		}
	}
	close(gate.open)
	const head = taskResultHeaderLen + 8 // result header, block count and size
	frame := make([]byte, msgHeaderLen+head+4*8*q*q+4)
	if _, err := io.ReadFull(remote, frame); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	body := frame[msgHeaderLen+head : len(frame)-4]
	for n := 0; n < 4; n++ {
		var got [1]float64
		matrix.DecodeFloatsInto(got[:], body[n*8*q*q:])
		if got[0] != float64(n+1) {
			t.Fatalf("block %d arrived holding %g", n, got[0])
		}
	}
}
