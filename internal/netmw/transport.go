package netmw

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// This file adapts the wire protocol (proto.go) to the engine's typed
// messages: each transport owns one side of one connection, translating
// engine.Msg values to frames and back. All protocol *logic* (routing,
// staging, prefetch, slot gating) lives in internal/engine; these types
// only frame, encode and decode — and recycle buffers, so the
// steady-state path allocates per connection, not per message: a
// frame's own bytes are built and read in per-connection scratch
// buffers, and block payloads are sent from block memory
// (writeBlockFrame) and read into pooled q² buffers (recv.go) that
// their consumers release (see engine.BlockPool).

// connIO bundles the per-connection state both transports share.
type connIO struct {
	conn net.Conn
	r    *bufio.Reader
	pool *engine.BlockPool

	wmu      sync.Mutex  // serializes writers (dispatcher or worker loop, heartbeat)
	wbuf     []byte      // frame scratch (header + payload), reused under wmu
	wcuts    []blockCut  // where a block frame's blocks splice into wbuf, under wmu
	warena   blockArena  // wire copies of blocks where memory is not the wire format, under wmu
	wiovec   net.Buffers // gathered-write vector, backing array reused under wmu
	wsend    net.Buffers // the header of wiovec a write consumes, under wmu
	rscratch []byte      // control-frame scratch, single reader goroutine
	rhdr     [5]byte     // frame-header scratch, single reader goroutine
	rframe   frameReader // block-frame reader, single reader goroutine

	bytesOut atomic.Int64 // bytes written to the peer (egress accounting)
	bytesIn  atomic.Int64 // bytes read from the peer (ingress accounting)
}

// WireStats is one connection's byte accounting, as exposed by the
// Stats accessor every transport shares: the estimator derives link
// bandwidth from it and mmserve status reports it, off the same counts.
type WireStats struct {
	BytesOut int64 // egress: frames written to the peer
	BytesIn  int64 // ingress: frames read from the peer
}

func newConnIO(conn net.Conn, r *bufio.Reader, pool *engine.BlockPool) *connIO {
	if r == nil {
		r = bufio.NewReaderSize(conn, connBuf)
	}
	c := &connIO{conn: conn, r: r, pool: pool}
	c.rframe.r, c.rframe.pool = r, pool
	return c
}

// writeFrame frames and writes one message built by fill, which
// appends the payload to the reused scratch buffer. The 5-byte frame
// header is built in the same buffer, so one Write to the connection
// moves the whole frame and nothing escapes per message.
func (c *connIO) writeFrame(t MsgType, fill func(buf []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	buf = append(buf, byte(t), 0, 0, 0, 0)
	if fill != nil {
		buf = fill(buf)
	}
	c.wbuf = buf
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
	n, err := c.conn.Write(buf)
	c.bytesOut.Add(int64(n))
	return err
}

// Stats snapshots the connection's byte counters. This is the single
// accessor the bandwidth estimator and the status page both read.
func (c *connIO) Stats() WireStats {
	return WireStats{BytesOut: c.bytesOut.Load(), BytesIn: c.bytesIn.Load()}
}

// readHead reads the next frame header. The n-byte payload is then read
// by readFrame (control frames) or streamed through blockFrame.
func (c *connIO) readHead() (MsgType, int, error) {
	t, n, err := readMsgHeader(c.r, &c.rhdr)
	if err == nil {
		c.bytesIn.Add(int64(msgHeaderLen + n))
	}
	return t, n, err
}

// readFrame reads a control frame's n-byte payload into the connection
// scratch buffer, which it reuses when it is large enough; otherwise
// readPayload's bounded-step growth runs (a corrupted length prefix
// must not provoke a giant allocation for bytes that never come) and
// the grown buffer becomes the new scratch. The payload aliases the
// scratch and must be fully consumed before the next read.
func (c *connIO) readFrame(n int) ([]byte, error) {
	if n > cap(c.rscratch) {
		payload, err := readPayload(c.r, n)
		if err == nil {
			c.rscratch = payload
		}
		return payload, err
	}
	payload := c.rscratch[:n]
	_, err := io.ReadFull(c.r, payload)
	return payload, err
}

// blockFrame starts streaming a block-carrying frame's n-byte payload.
func (c *connIO) blockFrame(n int) *frameReader {
	c.rframe.start(n)
	return &c.rframe
}

func (c *connIO) Close() error { return c.conn.Close() }

// blockCut marks where one block's doubles belong in a frame: after the
// first at bytes of the frame's own bytes.
type blockCut struct {
	at  int
	blk []float64
}

// blockFrame is a block-carrying frame under construction: buf holds
// the frame's own bytes in stream order (frame header, message header,
// manifests, per-block prefixes) and block marks where a block's
// payload goes between them.
type blockFrame struct{ c *connIO }

// bytes appends to the frame's own bytes.
func (f blockFrame) bytes(p ...byte) { f.c.wbuf = append(f.c.wbuf, p...) }

// u16, u32 and u64 append one little-endian field.
func (f blockFrame) u16(v uint16) { f.c.wbuf = binary.LittleEndian.AppendUint16(f.c.wbuf, v) }
func (f blockFrame) u32(v uint32) { f.c.wbuf = binary.LittleEndian.AppendUint32(f.c.wbuf, v) }
func (f blockFrame) u64(v uint64) { f.c.wbuf = binary.LittleEndian.AppendUint64(f.c.wbuf, v) }

// grow appends n zero bytes and returns them for an encode-in-place.
func (f blockFrame) grow(n int) []byte {
	off := len(f.c.wbuf)
	f.c.wbuf = append(f.c.wbuf, make([]byte, n)...)
	return f.c.wbuf[off:]
}

// block places blk's doubles next in the stream.
func (f blockFrame) block(blk []float64) {
	f.c.wcuts = append(f.c.wcuts, blockCut{at: len(f.c.wbuf), blk: blk})
}

// blocks places a block list next in the stream.
func (f blockFrame) blocks(blks [][]float64) {
	for _, blk := range blks {
		f.block(blk)
	}
}

// writeBlockFrame frames and writes one message that carries block
// payloads — every bulk frame: Set, Task, TaskResult —
// with a gathered write (net.Buffers → writev on TCP). fill lays the
// frame out; the frame's own bytes and each block go out as separate
// iovecs, and on little-endian builds a block's iovec is a view of the
// block's memory, so a payload is never copied in user space (elsewhere
// it is the arena copy, see blockArena). The trailing payload CRC32C is
// accumulated over exactly the bytes written, in stream order.
//
// The blocks are read until the write returns and never after: callers
// release owned blocks only then, and a block mutated once Send has
// returned cannot reach the peer.
func (c *connIO) writeBlockFrame(t MsgType, fill func(f blockFrame)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = append(c.wbuf[:0], byte(t), 0, 0, 0, 0)
	c.wcuts = c.wcuts[:0]
	fill(blockFrame{c})
	blockBytes := 0
	for _, ct := range c.wcuts {
		blockBytes += 8 * len(ct.blk)
	}
	// The CRC slot is the last append: from here wbuf does not move, so
	// the vector may point into it.
	buf := append(c.wbuf, 0, 0, 0, 0)
	c.wbuf = buf
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-msgHeaderLen+blockBytes))
	c.warena.reset()
	iov := c.wiovec[:0]
	var sum uint32
	from := 0
	for i, ct := range c.wcuts {
		if ct.at > from {
			iov = append(iov, buf[from:ct.at])
			// The frame header is outside the checksum.
			sum = crc32.Update(sum, crcTable, buf[max(from, msgHeaderLen):ct.at])
			from = ct.at
		}
		bs := c.warena.wire(ct.blk)
		iov = append(iov, bs)
		sum = crc32.Update(sum, crcTable, bs)
		c.wcuts[i].blk = nil // the scratch must not pin a pooled block
	}
	sum = crc32.Update(sum, crcTable, buf[max(from, msgHeaderLen):len(buf)-4])
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], sum)
	iov = append(iov, buf[from:])
	c.wiovec = iov
	// WriteTo consumes the vector it is called on (a writev per syscall
	// batch on TCP): it advances wsend, a field so that the call
	// allocates nothing, while wiovec keeps the backing array for reuse.
	c.wsend = iov
	n, err := c.wsend.WriteTo(c.conn)
	c.bytesOut.Add(n)
	return err
}

// sendSet frames a delta Set — header, block-ID manifest, then only the
// payloads the worker lacks — releasing owned operand buffers once
// written and recycling the message.
func (c *connIO) sendSet(set *engine.Set) error {
	nA, nB := len(set.A), len(set.B)
	if nA > int(^uint16(0)) || nB > int(^uint16(0)) {
		return fmt.Errorf("netmw: set with %d+%d operands does not fit the wire", nA, nB)
	}
	err := c.writeBlockFrame(MsgSet, func(f blockFrame) {
		f.u32(uint32(set.K))
		f.u32(capOnWire(set.Cap))
		f.u16(uint16(nA))
		f.u16(uint16(nB))
		manifest := func(blocks [][]float64, ids []uint64) {
			for i, blk := range blocks {
				var id uint64
				if i < len(ids) {
					id = ids[i]
				}
				f.u64(id)
				if blk == nil {
					f.bytes(0) // resident on the worker: manifest only
				} else {
					f.bytes(1)
				}
			}
		}
		manifest(set.A, set.AIDs)
		manifest(set.B, set.BIDs)
		for _, blk := range set.A {
			if blk != nil {
				f.block(blk)
			}
		}
		for _, blk := range set.B {
			if blk != nil {
				f.block(blk)
			}
		}
	})
	if set.Owned {
		c.pool.PutAll(set.A)
		c.pool.PutAll(set.B)
	}
	if err == nil {
		c.pool.PutSet(set)
	}
	return err
}

// capOnWire clamps a cache capacity into its uint32 wire field.
func capOnWire(cap int) uint32 {
	if cap < 0 {
		return 0
	}
	if uint64(cap) > uint64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(cap)
}

// cFlags lays out an assignment's C-flag tail prefix: the uint16 flag
// count then the flag bytes. A nil/empty flag list means every tile
// ships (count 0, full payload follows).
func (f blockFrame) cFlags(flags []byte) {
	f.u16(uint16(len(flags)))
	f.bytes(flags...)
}

// checkCFlagsOnWire rejects flag lists that do not fit the uint16 count
// field before anything is framed.
func checkCFlagsOnWire(flags []byte) error {
	if len(flags) > int(^uint16(0)) {
		return fmt.Errorf("netmw: %d C flags do not fit the wire", len(flags))
	}
	return nil
}

// sendTask frames an assignment as MsgTask: the task header, the drop
// list, the C-flag tail prefix, then the shipped C tiles — releasing
// owned tiles once written and recycling the message. C tiles are
// mutable job state, read here and not after Send returns.
func (c *connIO) sendTask(m *engine.Assign) error {
	if err := checkCFlagsOnWire(m.CFlags); err != nil {
		return err
	}
	if len(m.Drop) > int(^uint16(0)) {
		return fmt.Errorf("netmw: %d dropped jobs do not fit the wire", len(m.Drop))
	}
	hdr := TaskHeader{
		Job: m.ID.A, Seq: m.ID.B, Attempt: m.ID.C,
		Steps: uint32(m.Steps), I0: uint32(m.I0), J0: uint32(m.J0),
		Rows: uint32(m.Rows), Cols: uint32(m.Cols), Q: uint32(m.Q),
	}
	err := c.writeBlockFrame(MsgTask, func(f blockFrame) {
		hdr.encode(f.grow(taskHeaderLen))
		f.u16(uint16(len(m.Drop)))
		for _, job := range m.Drop {
			f.u32(job)
		}
		f.cFlags(m.CFlags)
		f.blocks(m.Blocks)
	})
	if m.Owned {
		c.pool.PutAll(m.Blocks)
	}
	if err == nil {
		c.pool.PutAssign(m)
	}
	return err
}

// sendTaskResult frames a finished task as MsgTaskResult: the header
// naming the assignment and carrying the worker's timing, the tile's
// block count and block size, then the tile — releasing the tile once
// written and recycling the message.
func (c *connIO) sendTaskResult(m *engine.Result) error {
	hdr := TaskResultHeader{
		Job: m.ID.A, Seq: m.ID.B, Attempt: m.ID.C,
		Updates: uint64(m.Updates), ComputeNS: uint64(m.ComputeNS),
	}
	n := 0
	if len(m.Blocks) > 0 {
		n = len(m.Blocks[0])
	}
	err := c.writeBlockFrame(MsgTaskResult, func(f blockFrame) {
		hdr.encode(f.grow(taskResultHeaderLen))
		f.u32(uint32(len(m.Blocks)))
		f.u32(uint32(n))
		f.blocks(m.Blocks)
	})
	c.pool.PutAll(m.Blocks)
	if err == nil {
		c.pool.PutResult(m)
	}
	return err
}

// --- worker side -----------------------------------------------------------

// clusterWorkerTransport is the worker end of a session: tasks (MsgTask)
// and their update sets (MsgSet) are pushed to it, and each finished
// task goes home as one MsgTaskResult carrying the (Job, Seq, Attempt)
// identity and the tile. It can still frame a MsgReq, which only the
// bench's block round-trip replay sends.
type clusterWorkerTransport struct {
	*connIO
	geom geomFIFO
}

// NewClusterWorkerTransport wraps the worker side of a connection to a
// cluster server (post-registration). pool may be nil.
func NewClusterWorkerTransport(conn net.Conn, pool *engine.BlockPool) engine.Transport {
	return newClusterWorkerTransport(conn, pool)
}

func newClusterWorkerTransport(conn net.Conn, pool *engine.BlockPool) *clusterWorkerTransport {
	return &clusterWorkerTransport{connIO: newConnIO(conn, nil, pool)}
}

// sendRegister announces the worker before the engine starts.
func (t *clusterWorkerTransport) sendRegister(ri RegisterInfo) error {
	return t.writeFrame(MsgRegister, func(buf []byte) []byte {
		return append(buf, ri.encode()...)
	})
}

// sendHeartbeat emits a liveness beacon; safe concurrently with Send.
func (t *clusterWorkerTransport) sendHeartbeat() error {
	return t.writeFrame(MsgHeartbeat, nil)
}

func (t *clusterWorkerTransport) Send(m engine.Msg) error {
	switch m := m.(type) {
	case *engine.Request:
		return t.writeFrame(MsgReq, func(buf []byte) []byte {
			return append(buf, ReqSet)
		})
	case *engine.Result:
		return t.sendTaskResult(m)
	default:
		return fmt.Errorf("netmw: cluster worker transport cannot send %T", m)
	}
}

func (t *clusterWorkerTransport) Recv() (engine.Msg, error) {
	mt, n, err := t.readHead()
	if err != nil {
		return nil, err
	}
	switch mt {
	case MsgBye:
		payload, err := t.readFrame(n)
		if err != nil || len(payload) == 0 {
			return engine.Bye{}, err
		}
		return nil, refusal(payload)
	case MsgTask:
		as, err := readTask(t.blockFrame(n))
		if err != nil {
			return nil, err
		}
		t.geom.push(as.Rows, as.Cols, as.Q, as.Steps)
		return as, nil
	case MsgSet:
		return readSet(t.blockFrame(n), &t.geom)
	default:
		return nil, fmt.Errorf("netmw: cluster worker got unexpected message %d", mt)
	}
}

// --- server side -----------------------------------------------------------

// serverTransport is the server end of one worker session.
// Heartbeats are consumed inside Recv through the onHeartbeat hook; a
// hook error severs the connection (the peer re-registers).
type serverTransport struct {
	*connIO
	onHeartbeat func() error
	// crcFault is set once a result frame fails its checksum: the
	// session ends on transport corruption, not a compute fault.
	crcFault atomic.Bool
}

// NewServerTransport wraps the server side of one cluster worker
// connection (post-registration). onHeartbeat consumes MsgHeartbeat
// frames; returning an error severs the connection. pool may be nil.
func NewServerTransport(conn net.Conn, pool *engine.BlockPool, onHeartbeat func() error) engine.Transport {
	return newServerTransport(conn, nil, pool, onHeartbeat)
}

func newServerTransport(conn net.Conn, r *bufio.Reader, pool *engine.BlockPool, onHeartbeat func() error) *serverTransport {
	return &serverTransport{connIO: newConnIO(conn, r, pool), onHeartbeat: onHeartbeat}
}

func (t *serverTransport) Send(m engine.Msg) error {
	switch m := m.(type) {
	case *engine.Assign:
		return t.sendTask(m)
	case *engine.Set:
		return t.sendSet(m)
	case engine.Bye:
		return t.writeFrame(MsgBye, nil)
	default:
		return fmt.Errorf("netmw: server transport cannot send %T", m)
	}
}

func (t *serverTransport) Recv() (engine.Msg, error) {
	for {
		mt, n, err := t.readHead()
		if err != nil {
			return nil, err
		}
		switch mt {
		case MsgHeartbeat:
			if _, err := t.readFrame(n); err != nil {
				return nil, err
			}
			if err := t.onHeartbeat(); err != nil {
				// Stale incarnation (declared dead, or replaced by a
				// reconnect): drop the connection so the peer
				// re-registers.
				t.conn.Close()
				return nil, err
			}
		case MsgReq:
			payload, err := t.readFrame(n)
			if err != nil {
				return nil, err
			}
			if len(payload) != 1 || payload[0] != ReqSet {
				return nil, fmt.Errorf("netmw: bad worker request")
			}
			return engine.RequestSet, nil
		case MsgTaskResult:
			m, err := readTaskResult(t.blockFrame(n))
			if errors.Is(err, ErrPayloadCRC) {
				t.crcFault.Store(true)
			}
			return m, err
		default:
			return nil, fmt.Errorf("netmw: unexpected message %d from cluster worker", mt)
		}
	}
}
