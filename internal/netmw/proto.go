// Package netmw is the TCP face of the cluster service: the wire
// protocol, the server that accepts workers and job submissions for a
// cluster.Cluster (ServeCluster), the reconnecting worker
// (RunClusterWorker) and the submitting client (SubmitMatMulTCP and
// friends). Workers run in separate processes, the repository's
// stand-in for the paper's MPI deployment across real machines. Each
// worker session is the engine's RunFeeder/RunWorker pair over one
// connection (internal/engine); this package only frames, encodes and
// decodes.
//
// Wire format: every message is a 1-byte type, a 4-byte little-endian
// payload length, and the payload. Float payloads are raw little-endian
// IEEE-754 doubles. Frames to one worker are written one at a time;
// sessions of different workers write concurrently, and the master's
// one port (§2.2) is its network interface (the paper cites Saif &
// Parashar for the observation that large asynchronous sends serialize
// anyway).
package netmw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// MsgType tags a protocol message.
type MsgType byte

// Protocol message types. The numbers are the wire encoding and never
// change. 1, 2, 4, 13 and 14 are reserved: 1, 2 and 4 were the frames
// of a retired single-job dialect (hello, job, result), 13 was the
// master's demand for a worker's finished tiles (flush), and 14 the
// tile a worker sent home behind its acknowledgement (flush result),
// which the task result now carries itself. They are never reused, so
// a peer still speaking a retired dialect fails on such a frame instead
// of being misread.
const (
	// MsgSet carries one delta update set: uint32 k, uint32 cache
	// capacity, uint16 A-entry and B-entry counts (which must match the
	// open assignment's Rows and Cols), then one 9-byte manifest entry
	// per operand block — uint64 block ID, 1 flag byte (1 = payload
	// follows, 0 = resident in the worker's cache; ID 0 is the
	// untracked sentinel and must carry payload) — and finally the
	// payloads of the flagged blocks in manifest order (A then B). A
	// full (pre-delta) set is the degenerate case: every entry flagged,
	// IDs 0.
	MsgSet MsgType = 3
	// MsgReq was a worker's request for the next update set: 1 byte,
	// always ReqSet. The master pushes every set now and severs a
	// worker that sends one (engine.ErrSetRequest); both transports
	// still frame it for the bench's block round-trip replay only.
	MsgReq MsgType = 5
	// MsgBye tells a worker to shut down: an empty payload at a clean
	// end; at registration, the master's refusal of the worker's
	// protocol version — uint32 master ProtocolVersion, then the reason
	// as UTF-8 bytes.
	MsgBye MsgType = 6
	// MsgRegister is sent by a worker on connect (and on every
	// reconnect): RegisterInfo payload.
	MsgRegister MsgType = 7
	// MsgHeartbeat is a worker liveness beacon; empty payload.
	MsgHeartbeat MsgType = 8
	// MsgTask assigns one task: TaskHeader, a uint16 C-flag count, then
	// that many flag bytes (engine.CShip = 0 or CZero = 2; 1 is retired
	// and refused) and the payloads of exactly the CShip tiles in
	// row-major flag order. Count 0 means every tile ships: all
	// Rows*Cols payloads follow. The worker keeps the tile; the task's
	// Steps update sets follow it, pushed by the master.
	MsgTask MsgType = 9
	// MsgTaskResult is a finished task's one message home: the
	// TaskResultHeader, a uint32 block count, a uint32 element count per
	// block, then the task's Rows×Cols tile, row-major, as raw
	// little-endian doubles.
	MsgTaskResult MsgType = 10
	// MsgSubmit is a client job submission: JobHeader then the operand
	// blocks (C, A, B for matmul; M for LU).
	MsgSubmit MsgType = 11
	// MsgJobDone answers a submission: JobDoneHeader, then either the
	// result blocks (Code 0) or an error string.
	MsgJobDone MsgType = 12
)

// ProtocolVersion is the version of the wire protocol this build speaks.
// A worker registers with it and a client leads every submit header with
// it; the master refuses any other (or none), so a change fails at join
// or at submit instead of hanging an older peer or running a job on
// misread operands. Bump it with every change to the frames, or to what
// a worker holds under the master's cache budget (version 2: evicted
// buffers go back right after the update that reads them).
const ProtocolVersion uint32 = 2

// ErrProtocolVersion refuses a worker or a submission whose protocol
// version is not the master's.
var ErrProtocolVersion = errors.New("netmw: protocol version mismatch")

// refusalFrame is the Bye frame that refuses a registration: its
// payload is the master's ProtocolVersion, then the reason.
func refusalFrame(reason string) []byte {
	buf := make([]byte, msgHeaderLen, msgHeaderLen+4+len(reason))
	putMsgHeader(buf, MsgBye, 4+len(reason))
	buf = binary.LittleEndian.AppendUint32(buf, ProtocolVersion)
	return append(buf, reason...)
}

// refusal is the error a worker reads in a refusing Bye's payload: an
// ErrProtocolVersion naming both versions.
func refusal(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: refused at join (%d-byte reason)", ErrProtocolVersion, len(payload))
	}
	return fmt.Errorf("%w: this worker speaks version %d, the master %d: %s",
		ErrProtocolVersion, ProtocolVersion, binary.LittleEndian.Uint32(payload), payload[4:])
}

// ReqSet is MsgReq's one payload byte.
const ReqSet byte = 1

// Delta-Set layout constants: the fixed header (k, cap, nA, nB) and the
// per-block manifest entry (id, flag).
const (
	setHeaderLen = 4 + 4 + 2 + 2
	setEntryLen  = 8 + 1
)

// RegisterInfo is a cluster worker's registration.
type RegisterInfo struct {
	Name  string // stable worker id, reused across reconnects
	Mem   uint32 // advertised capacity in q×q blocks
	Slots uint16 // concurrent tasks the worker pipelines (0 means 1)
	// Version is the worker's ProtocolVersion, a uint32 after the name;
	// a registration without one, from a build that predates it,
	// decodes as 0.
	Version uint32
}

const registerFixedLen = 8 // Mem(4) + Slots(2) + name length(2)

func (r *RegisterInfo) encode() []byte {
	buf := make([]byte, registerFixedLen+len(r.Name), registerFixedLen+len(r.Name)+4)
	binary.LittleEndian.PutUint32(buf[0:], r.Mem)
	binary.LittleEndian.PutUint16(buf[4:], r.Slots)
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(r.Name)))
	copy(buf[registerFixedLen:], r.Name)
	return binary.LittleEndian.AppendUint32(buf, r.Version)
}

func (r *RegisterInfo) decode(buf []byte) error {
	if len(buf) < registerFixedLen {
		return fmt.Errorf("netmw: short register payload (%d bytes)", len(buf))
	}
	r.Mem = binary.LittleEndian.Uint32(buf[0:])
	r.Slots = binary.LittleEndian.Uint16(buf[4:])
	n := int(binary.LittleEndian.Uint16(buf[6:]))
	if len(buf) < registerFixedLen+n {
		return fmt.Errorf("netmw: register name truncated (%d of %d bytes)", len(buf)-registerFixedLen, n)
	}
	r.Name = string(buf[registerFixedLen : registerFixedLen+n])
	r.Version = 0
	if rest := buf[registerFixedLen+n:]; len(rest) >= 4 {
		r.Version = binary.LittleEndian.Uint32(rest)
	}
	return nil
}

// TaskHeader describes one cluster task on the wire. Job/Seq/Attempt
// identify the assignment (echoed back in the result so stale completions
// are detectable); Steps is the number of update sets the worker must
// stream; I0/J0 anchor the C tile in the job's block grid (the worker
// derives its resident-tile IDs from them); Rows/Cols/Q give the C tile
// geometry.
type TaskHeader struct {
	Job     uint32
	Seq     uint32
	Attempt uint32
	Steps   uint32
	I0      uint32
	J0      uint32
	Rows    uint32
	Cols    uint32
	Q       uint32
}

const taskHeaderLen = 9 * 4

// words lists the header's fields in wire order.
func (h *TaskHeader) words() [9]*uint32 {
	return [9]*uint32{&h.Job, &h.Seq, &h.Attempt, &h.Steps, &h.I0, &h.J0, &h.Rows, &h.Cols, &h.Q}
}

func (h *TaskHeader) encode(buf []byte) {
	for i, w := range h.words() {
		binary.LittleEndian.PutUint32(buf[4*i:], *w)
	}
}

func (h *TaskHeader) decode(buf []byte) error {
	if len(buf) < taskHeaderLen {
		return fmt.Errorf("netmw: short task header (%d bytes)", len(buf))
	}
	for i, w := range h.words() {
		*w = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return nil
}

// TaskResultHeader identifies the assignment an acknowledgement answers,
// and carries the worker-side compute timing for it (Updates block updates
// took ComputeNS kernel nanoseconds; zero = unmeasured) — the live
// speed estimator's per-task sample.
type TaskResultHeader struct {
	Job       uint32
	Seq       uint32
	Attempt   uint32
	Updates   uint64
	ComputeNS uint64
}

const taskResultHeaderLen = 3*4 + 2*8

func (h *TaskResultHeader) encode(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], h.Job)
	binary.LittleEndian.PutUint32(buf[4:], h.Seq)
	binary.LittleEndian.PutUint32(buf[8:], h.Attempt)
	binary.LittleEndian.PutUint64(buf[12:], h.Updates)
	binary.LittleEndian.PutUint64(buf[20:], h.ComputeNS)
}

func (h *TaskResultHeader) decode(buf []byte) error {
	if len(buf) < taskResultHeaderLen {
		return fmt.Errorf("netmw: short task result header (%d bytes)", len(buf))
	}
	h.Job = binary.LittleEndian.Uint32(buf[0:])
	h.Seq = binary.LittleEndian.Uint32(buf[4:])
	h.Attempt = binary.LittleEndian.Uint32(buf[8:])
	h.Updates = binary.LittleEndian.Uint64(buf[12:])
	h.ComputeNS = binary.LittleEndian.Uint64(buf[20:])
	return nil
}

// Job kinds on the wire.
const (
	WireMatMul uint32 = iota
	WireLU
)

// JobHeader describes a submitted job: for matmul the payload continues
// with R·S C blocks, R·T A blocks and T·S B blocks; for LU, with R·R M
// blocks (and T, S echo R). Key is the client's durable idempotency key:
// a resubmission carrying the key of an already-accepted job attaches to
// that job (and its journaled state across a master restart) instead of
// starting a duplicate. Key 0 means unkeyed — every submission is fresh.
// On the wire it leads with the sender's ProtocolVersion, which decode
// checks (a header from before the version leads with its Kind: 0 or 1).
type JobHeader struct {
	Kind uint32
	R    uint32
	T    uint32
	S    uint32
	Q    uint32
	Mu   uint32
	Key  uint64
}

const jobHeaderLen = 7*4 + 8

// words lists the header's uint32 fields in wire order, after the
// version and before the key.
func (h *JobHeader) words() [6]*uint32 { return [6]*uint32{&h.Kind, &h.R, &h.T, &h.S, &h.Q, &h.Mu} }

func (h *JobHeader) encode(buf []byte) {
	binary.LittleEndian.PutUint32(buf, ProtocolVersion)
	for i, w := range h.words() {
		binary.LittleEndian.PutUint32(buf[4+4*i:], *w)
	}
	binary.LittleEndian.PutUint64(buf[28:], h.Key)
}

func (h *JobHeader) decode(buf []byte) error {
	if len(buf) < jobHeaderLen {
		return fmt.Errorf("netmw: short job header (%d bytes)", len(buf))
	}
	if v := binary.LittleEndian.Uint32(buf); v != ProtocolVersion {
		return fmt.Errorf("%w: the submission speaks version %d, this master %d", ErrProtocolVersion, v, ProtocolVersion)
	}
	for i, w := range h.words() {
		*w = binary.LittleEndian.Uint32(buf[4+4*i:])
	}
	h.Key = binary.LittleEndian.Uint64(buf[28:])
	return nil
}

// JobDoneHeader answers a submission. Code 0 means success and the result
// blocks follow; any other code is an error whose message follows as
// UTF-8 bytes: codeVersion for another protocol version, else 1.
type JobDoneHeader struct {
	Job  uint32
	Code uint32
}

const (
	jobDoneHeaderLen = 2 * 4
	codeVersion      = 2 // the JobDone code refusing a submission's protocol version
)

func (h *JobDoneHeader) encode(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:], h.Job)
	binary.LittleEndian.PutUint32(buf[4:], h.Code)
}

func (h *JobDoneHeader) decode(buf []byte) error {
	if len(buf) < jobDoneHeaderLen {
		return fmt.Errorf("netmw: short job done header (%d bytes)", len(buf))
	}
	h.Job = binary.LittleEndian.Uint32(buf[0:])
	h.Code = binary.LittleEndian.Uint32(buf[4:])
	return nil
}

// Bulk float payloads — tasks (MsgTask), update sets (MsgSet) and
// results (MsgTaskResult) — carry
// a trailing 4-byte little-endian CRC32C over the rest of the payload.
// The checksum classifies faults: a CRC mismatch is transport corruption
// (the connection is severed and the work resent), while a CRC-clean
// payload that fails Freivalds verification is attributed to the
// worker's compute. Castagnoli is hardware-accelerated on every
// platform the stdlib cares about, so the cost is one read of the
// payload at memory bandwidth.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrPayloadCRC reports a bulk payload whose trailing CRC32C does not
// match its bytes — wire corruption, not a worker compute fault.
var ErrPayloadCRC = errors.New("netmw: payload checksum mismatch")

// putMsgHeader lays the frame header of an n-byte payload into hdr's
// first msgHeaderLen bytes.
func putMsgHeader(hdr []byte, t MsgType, n int) {
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:msgHeaderLen], uint32(n))
}

// maxPayload bounds a single message to keep a corrupted length prefix
// from provoking a giant allocation. The largest legal message is a job
// submission — all of C, A and B in one MsgSubmit frame — so this is
// also the submit limit: 3n² doubles fit up to n = 3344 (the bench's
// dense_large, n = 2048, is a 96 MiB frame).
const maxPayload = 256 << 20

// readStep bounds the per-iteration allocation of readPayload: payloads grow
// as their bytes actually arrive, so a corrupted length prefix cannot
// provoke a giant up-front allocation for data that never comes.
const readStep = 1 << 20

// readMsgHeader reads a frame header into the caller's scratch and
// returns the message type and the bounds-checked length of the payload
// that follows.
func readMsgHeader(r io.Reader, hdr *[msgHeaderLen]byte) (MsgType, int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	// The length stays unsigned until it has passed the bound check, so
	// a ≥ 2³¹ prefix cannot slip through as a negative int on 32-bit
	// platforms.
	n32 := binary.LittleEndian.Uint32(hdr[1:])
	if n32 > maxPayload {
		return 0, 0, fmt.Errorf("netmw: oversized payload %d bytes", n32)
	}
	return MsgType(hdr[0]), int(n32), nil
}

// readPayload reads an n-byte payload with bounded-step growth: each
// step reads at most readStep bytes into a buffer grown by append's
// amortized doubling, so it only ever reaches a small multiple of the
// bytes the peer has actually delivered, each read once into place.
func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, 0, min(n, readStep))
	for off := 0; off < n; off = len(payload) {
		step := min(n-off, readStep)
		payload = slices.Grow(payload, step)[:off+step]
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// msgHeaderLen is the frame header: 1 type byte + 4 length bytes.
const msgHeaderLen = 5

// maxWireDim caps every wire-declared dimension (blocks per chunk side,
// block size q, step counts). Any legal message under maxPayload stays
// far below it, and the cap keeps hostile headers from overflowing the
// size arithmetic of the decoders or provoking geometry-sized
// allocations for bytes that never arrive.
const maxWireDim = 1 << 15
