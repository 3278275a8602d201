package netmw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/engine"
)

// The receive side of every checksummed frame — Set, Task and
// TaskResult — mirrors the send side: the
// frame's own bytes (header, manifest, flags, per-block prefixes) are
// read into a small scratch and validated against the open geometry,
// and each block is then read from the connection straight into a pool
// block (on little-endian builds; elsewhere through blockArena). The
// connection's reader buffers less than a block, so a block's bytes are
// copied once, from the socket into block memory. The trailing CRC32C
// is accumulated over exactly the bytes read, and a message is delivered
// only once it matches.

// connBuf sizes a worker connection's read buffer (writes go straight
// to the connection, one frame per write). It is smaller than a block
// of q ≥ 46, so block payloads bypass it; only control frames and the
// frame bytes around blocks pass through.
const connBuf = 16 << 10

// frameReader streams the payload of one block-carrying frame.
type frameReader struct {
	r    io.Reader
	pool *engine.BlockPool

	left   int    // payload bytes not yet read, the 4-byte checksum included
	sum    uint32 // CRC32C of the payload bytes read so far
	broken error  // the read error that cut the frame short, if any

	head  []byte     // scratch for the frame's own bytes, reused
	arena blockArena // wire bytes of a block where memory is not the wire format
	sink  [4 << 10]byte
}

// start begins an n-byte payload.
func (f *frameReader) start(n int) {
	f.left, f.sum, f.broken = n, 0, nil
}

// body is what is left of the payload before its checksum.
func (f *frameReader) body() int { return f.left - 4 }

// read fills p from the stream, accumulating the checksum.
func (f *frameReader) read(p []byte) error {
	if _, err := io.ReadFull(f.r, p); err != nil {
		f.broken = err
		return err
	}
	f.sum = crc32.Update(f.sum, crcTable, p)
	f.left -= len(p)
	return nil
}

// take reads the next n bytes of the frame's own (non-block) bytes into
// the scratch; what names them in the error of a frame too short to
// hold them.
func (f *frameReader) take(n int, what string) ([]byte, error) {
	if n > f.body() {
		return nil, fmt.Errorf("netmw: %s truncated (%d of %d bytes)", what, max(f.body(), 0), n)
	}
	if cap(f.head) < n {
		f.head = make([]byte, n)
	}
	p := f.head[:n]
	return p, f.read(p)
}

// block reads the next n doubles into a block taken from the pool —
// only once the frame is known to hold them, and returned to the pool
// if the stream fails inside it.
func (f *frameReader) block(n int) ([]float64, error) {
	if uint64(n)*8 > uint64(max(f.body(), 0)) {
		return nil, fmt.Errorf("netmw: %d-element block overruns the frame (%d bytes left)", n, max(f.body(), 0))
	}
	blk := f.pool.Get(n)
	bs, err := f.arena.read(f.r, blk)
	if err != nil {
		f.pool.Put(blk)
		f.broken = err
		return nil, err
	}
	f.sum = crc32.Update(f.sum, crcTable, bs)
	f.left -= len(bs)
	return blk, nil
}

// end closes the frame with the decoder's verdict err and returns the
// frame's. Wire integrity is judged first, as if the whole payload had
// been checked before decoding: a frame that failed validation part way
// is drained to its checksum (into the fixed sink, within the declared
// length, which readMsgHeader bounded by maxPayload), and a checksum
// mismatch is ErrPayloadCRC whatever the decoder found. A stream that
// broke inside the frame has no checksum to judge: its error stands.
func (f *frameReader) end(err error) error {
	if f.broken != nil {
		return f.broken
	}
	if f.left < 4 {
		return fmt.Errorf("netmw: %d-byte payload too short to carry its checksum: %w", f.left, ErrPayloadCRC)
	}
	for f.body() > 0 {
		if rerr := f.read(f.sink[:min(f.body(), len(f.sink))]); rerr != nil {
			return rerr
		}
	}
	crc := f.sink[:4]
	if _, rerr := io.ReadFull(f.r, crc); rerr != nil {
		return rerr
	}
	f.left = 0
	if binary.LittleEndian.Uint32(crc) != f.sum {
		return ErrPayloadCRC
	}
	return err
}

// blockBytes is the payload size of nblocks blocks of q×q doubles.
func blockBytes(nblocks, q int) uint64 {
	return uint64(nblocks) * uint64(q) * uint64(q) * 8
}

// --- Set ---------------------------------------------------------------------

// geomEntry tracks the declared geometry of one in-flight assignment on
// the worker side, so update-set frames (which carry no geometry of
// their own) decode against the assignment they belong to. Assignments
// are computed FIFO and the master streams sets to the oldest
// incomplete one, so a FIFO of (geometry, sets remaining) suffices.
type geomEntry struct {
	rows, cols, q int
	left          int
}

type geomFIFO struct{ q []geomEntry }

func (g *geomFIFO) push(rows, cols, q, steps int) {
	g.q = append(g.q, geomEntry{rows: rows, cols: cols, q: q, left: steps})
}

// front returns the oldest entry with sets left to receive.
func (g *geomFIFO) front() *geomEntry {
	for len(g.q) > 0 && g.q[0].left == 0 {
		g.q = g.q[1:]
	}
	if len(g.q) == 0 {
		return nil
	}
	return &g.q[0]
}

// readSet decodes a delta MsgSet against the front geometry into pooled
// blocks. The manifest is validated strictly — entry counts must match
// the open assignment's geometry, flags must be 0 or 1, a cache
// reference must carry a well-formed tracked ID — and the frame must
// hold exactly the flagged blocks, all before a block is taken.
func readSet(f *frameReader, g *geomFIFO) (*engine.Set, error) {
	set := f.pool.GetSet()
	fr := g.front()
	err := readSetInto(f, fr, set)
	if err = f.end(err); err != nil {
		f.pool.PutAll(set.A)
		f.pool.PutAll(set.B)
		f.pool.PutSet(set)
		return nil, err
	}
	fr.left--
	set.Owned = true
	return set, nil
}

func readSetInto(f *frameReader, fr *geomEntry, set *engine.Set) error {
	if fr == nil {
		return errors.New("netmw: update set with no open assignment")
	}
	head, err := f.take(setHeaderLen, "set header")
	if err != nil {
		return err
	}
	set.K = int(binary.LittleEndian.Uint32(head))
	set.Cap = int(binary.LittleEndian.Uint32(head[4:]))
	nA := int(binary.LittleEndian.Uint16(head[8:]))
	nB := int(binary.LittleEndian.Uint16(head[10:]))
	if nA != fr.rows || nB != fr.cols {
		return fmt.Errorf("netmw: set manifest is %d+%d entries, open assignment wants %d+%d",
			nA, nB, fr.rows, fr.cols)
	}
	entries, err := f.take(setEntryLen*(nA+nB), "set manifest")
	if err != nil {
		return err
	}
	included := 0
	for e := 0; e < nA+nB; e++ {
		id := binary.LittleEndian.Uint64(entries[e*setEntryLen:])
		flag := entries[e*setEntryLen+8]
		switch {
		case flag > 1:
			return fmt.Errorf("netmw: set manifest entry %d has flag %d", e, flag)
		case flag == 1:
			included++
		case id == 0:
			return fmt.Errorf("netmw: set manifest entry %d references an untracked block without payload", e)
		}
		if id != 0 && !engine.ValidBlockID(id) {
			return fmt.Errorf("netmw: set manifest entry %d has malformed block id %#x", e, id)
		}
	}
	if uint64(f.body()) != blockBytes(included, fr.q) {
		return fmt.Errorf("netmw: set payload is %d bytes for %d flagged blocks of q=%d",
			f.body(), included, fr.q)
	}
	for e := 0; e < nA+nB; e++ {
		id := binary.LittleEndian.Uint64(entries[e*setEntryLen:])
		var blk []float64 // nil = resolved from the resident cache
		if entries[e*setEntryLen+8] == 1 {
			if blk, err = f.block(fr.q * fr.q); err != nil {
				return err
			}
		}
		if e < nA {
			set.A = append(set.A, blk)
			set.AIDs = append(set.AIDs, id)
		} else {
			set.B = append(set.B, blk)
			set.BIDs = append(set.BIDs, id)
		}
	}
	return nil
}

// --- Task ---------------------------------------------------------------------

// checkGeometry validates a wire-declared chunk geometry.
func checkGeometry(rows, cols, q int) error {
	if rows < 1 || cols < 1 || rows > maxWireDim || cols > maxWireDim {
		return fmt.Errorf("netmw: bad chunk geometry %dx%d blocks", rows, cols)
	}
	if q < 1 || q > maxWireDim {
		return fmt.Errorf("netmw: bad block size q=%d", q)
	}
	return nil
}

// readTask decodes a MsgTask frame: the task header, the uint16 drop
// count and the dropped job numbers, the uint16 C-flag count, the flag
// bytes, then the payloads of exactly the CShip-flagged tiles. Flag
// count 0 means every tile ships: CFlags stays empty and every tile's
// payload follows. The geometry, the flags and the frame length
// are all checked before a block is taken.
func readTask(f *frameReader) (*engine.Assign, error) {
	as := f.pool.GetAssign()
	err := readTaskInto(f, as)
	if err = f.end(err); err != nil {
		f.pool.PutAll(as.Blocks)
		as.Blocks = nil
		f.pool.PutAssign(as)
		return nil, err
	}
	as.Owned = true
	return as, nil
}

func readTaskInto(f *frameReader, as *engine.Assign) error {
	head, err := f.take(taskHeaderLen+2, "task header")
	if err != nil {
		return err
	}
	var hdr TaskHeader
	hdr.decode(head)
	as.ID = engine.AssignID{A: hdr.Job, B: hdr.Seq, C: hdr.Attempt}
	as.I0, as.J0 = int(hdr.I0), int(hdr.J0)
	as.Rows, as.Cols, as.Q, as.Steps = int(hdr.Rows), int(hdr.Cols), int(hdr.Q), int(hdr.Steps)
	if err := checkGeometry(as.Rows, as.Cols, as.Q); err != nil {
		return err
	}
	if as.Steps < 0 || as.Steps > maxWireDim {
		return fmt.Errorf("netmw: implausible step count %d", as.Steps)
	}
	ndrop := int(binary.LittleEndian.Uint16(head[taskHeaderLen:]))
	drops, err := f.take(4*ndrop+2, "assignment drop list")
	if err != nil {
		return err
	}
	for i := 0; i < ndrop; i++ {
		as.Drop = append(as.Drop, binary.LittleEndian.Uint32(drops[4*i:]))
	}
	ship := as.Rows * as.Cols
	if nflags := int(binary.LittleEndian.Uint16(drops[4*ndrop:])); nflags != 0 {
		if nflags != ship {
			return fmt.Errorf("netmw: assignment carries %d C flags for a %dx%d tile", nflags, as.Rows, as.Cols)
		}
		flags, err := f.take(nflags, "assignment C-flag list")
		if err != nil {
			return err
		}
		ship = 0
		for i, fl := range flags {
			switch fl {
			case engine.CShip:
				ship++
			case engine.CZero:
			default:
				return fmt.Errorf("netmw: assignment C flag %d has unknown state %d", i, fl)
			}
		}
		as.CFlags = append(as.CFlags[:0], flags...)
	}
	if uint64(f.body()) != blockBytes(ship, as.Q) {
		return fmt.Errorf("netmw: assignment payload is %d bytes for %d shipped blocks of q=%d",
			f.body(), ship, as.Q)
	}
	for i := 0; i < ship; i++ {
		blk, err := f.block(as.Q * as.Q)
		if err != nil {
			return err
		}
		as.Blocks = append(as.Blocks, blk)
	}
	return nil
}

// --- TaskResult -----------------------------------------------------------------

// readTaskResult decodes a MsgTaskResult frame: the header, the tile's
// block count and block size — plausible, and consuming the frame
// exactly, before a block is taken — then the tile.
func readTaskResult(f *frameReader) (*engine.Result, error) {
	res := f.pool.GetResult()
	if err := f.end(readTaskResultInto(f, res)); err != nil {
		f.pool.PutAll(res.Blocks)
		f.pool.PutResult(res)
		return nil, err
	}
	return res, nil
}

func readTaskResultInto(f *frameReader, res *engine.Result) error {
	head, err := f.take(taskResultHeaderLen+8, "result header")
	if err != nil {
		return err
	}
	var hdr TaskResultHeader
	hdr.decode(head)
	res.ID = engine.AssignID{A: hdr.Job, B: hdr.Seq, C: hdr.Attempt}
	// Clamp to int64 so a hostile peer cannot smuggle negative timing
	// into the estimator.
	if hdr.Updates <= 1<<62 && hdr.ComputeNS <= 1<<62 {
		res.Updates, res.ComputeNS = int64(hdr.Updates), int64(hdr.ComputeNS)
	}
	count := int(binary.LittleEndian.Uint32(head[taskResultHeaderLen:]))
	n := int(binary.LittleEndian.Uint32(head[taskResultHeaderLen+4:]))
	if count > maxWireDim*maxWireDim || n > maxWireDim*maxWireDim || count > 0 && n < 1 {
		return fmt.Errorf("netmw: task result declares %d blocks of %d elements", count, n)
	}
	if uint64(f.body()) != uint64(count)*uint64(n)*8 {
		return fmt.Errorf("netmw: task result payload is %d bytes for %d blocks of %d elements",
			f.body(), count, n)
	}
	for i := 0; i < count; i++ {
		blk, err := f.block(n)
		if err != nil {
			return err
		}
		res.Blocks = append(res.Blocks, blk)
	}
	return nil
}
