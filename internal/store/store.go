// Package store is the durable write-ahead journal under the cluster's
// control plane: an append-only log of opaque records with CRC-framed
// entries, per-append fsync, segment rotation, and compaction into a
// snapshot record — the persistence layer that lets a master process
// crash (or deploy) without losing accepted work.
//
// The journal stores bytes, not scheduler state: internal/cluster
// defines the record encoding (job accepted, chunk committed, job
// finished, snapshot) and its replay semantics. The contract the store
// provides is narrower and testable on its own:
//
//   - An Append that returned nil is durable: the frame was written and
//     fsync'd before the call returned (group-commit batching is the
//     caller's concern; the cluster batches naturally because one
//     commit record covers a whole chunk of tiles). AppendV writes the
//     frame of a record given as parts without joining them.
//   - Replay yields exactly the durable record prefix, in append order.
//     A torn tail — the crash hit mid-write — is detected by the frame
//     CRC/length and silently dropped; Open truncates it so subsequent
//     appends extend the valid prefix instead of burying garbage.
//   - Compact(snapshot) starts a fresh segment whose first record is
//     the snapshot (flagged so replay can reset state), then deletes
//     the older segments. A crash between the two steps is safe: the
//     stale segments replay first and the snapshot record resets them.
//
// Segment files are named wal-%08d.log and replayed in sequence order.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Frame layout: u32 payload length, u32 CRC-32C over (flag byte ‖
// payload), 1 flag byte (0 data, 1 snapshot), payload bytes.
const (
	frameHeaderLen = 4 + 4 + 1

	flagData     = 0
	flagSnapshot = 1
)

// maxRecord bounds one record so a corrupted length prefix cannot
// provoke a giant allocation during replay (1 GiB is far above any
// legal record: the largest is a snapshot of every live job).
const maxRecord = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("store: journal closed")

// Options tunes a Journal.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// Sync overrides the fsync call — the fault-injection hook; one that
	// returns nil skips fsync (tests and benchmarks only: a crash may
	// lose acknowledged records). Nil uses (*os.File).Sync.
	Sync func(*os.File) error
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	Records   int   // valid records delivered (snapshots included)
	Snapshots int   // snapshot records among them
	Bytes     int64 // payload bytes delivered
	Torn      int   // trailing bytes dropped as a torn tail
}

// Journal is an append-only record log over segment files in one
// directory. Its appends, compactions and Close are safe for concurrent
// use: each runs whole, one at a time, so a record's frame is never
// interleaved with another's. Replay may run on a live directory (a
// concurrent reader sees a valid prefix).
type Journal struct {
	dir  string
	opts Options

	mu      sync.Mutex // serializes appends, compactions and Close
	cur     *os.File
	curSeq  int
	curSize int64
	closed  bool
}

// Open creates dir if needed, validates the newest segment's tail
// (truncating any torn frame so appends extend the durable prefix), and
// opens the journal for appending.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.Sync == nil {
		opts.Sync = (*os.File).Sync
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	j := &Journal{dir: dir, opts: opts}
	seqs, err := j.segments()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := j.rotate(1); err != nil {
			return nil, err
		}
		return j, nil
	}
	last := seqs[len(seqs)-1]
	valid, err := validPrefix(j.segmentPath(last))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.segmentPath(last), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.cur, j.curSeq, j.curSize = f, last, valid
	return j, nil
}

// Append frames, writes and fsyncs one record. A nil error means the
// record is durable.
func (j *Journal) Append(rec []byte) error { return j.AppendV(rec) }

// AppendV is Append of the record its parts make in order: one frame
// whose length and CRC cover them all, each part written straight from
// where it lies. The parts are not retained.
func (j *Journal) AppendV(parts ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.append(flagData, parts...)
}

// append writes one frame; the caller holds j.mu.
func (j *Journal) append(flag byte, parts ...[]byte) error {
	if j.closed {
		return ErrClosed
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxRecord {
		return fmt.Errorf("store: record of %d bytes exceeds the %d limit", n, maxRecord)
	}
	if j.curSize >= j.opts.SegmentBytes {
		if err := j.rotate(j.curSeq + 1); err != nil {
			return err
		}
	}
	// The header and each part go out as one write apiece: a record is
	// never copied into a frame buffer (an accept record carries a job's
	// operands). A crash between the writes leaves the torn tail Open
	// already drops.
	hdr := [frameHeaderLen]byte{8: flag}
	crc := crc32.Update(0, crcTable, hdr[8:])
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
	}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	if _, err := j.cur.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	for _, p := range parts {
		if _, err := j.cur.Write(p); err != nil {
			return fmt.Errorf("store: append: %w", err)
		}
	}
	j.curSize += int64(frameHeaderLen + n)
	if err := j.opts.Sync(j.cur); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// Compact starts a fresh segment whose first record is snapshot (marked
// so Replay reports it as one), then removes every older segment.
// Appends continue into the new segment. Crash-safe: the snapshot is
// durable before any old segment is deleted, and a replay that still
// sees stale segments resets at the snapshot record.
func (j *Journal) Compact(snapshot []byte) error { return j.CompactV(snapshot) }

// CompactV is Compact of the snapshot its parts make, framed as AppendV.
func (j *Journal) CompactV(parts ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	old, err := j.segments()
	if err != nil {
		return err
	}
	if err := j.rotate(j.curSeq + 1); err != nil {
		return err
	}
	if err := j.append(flagSnapshot, parts...); err != nil {
		return err
	}
	for _, s := range old {
		if s == j.curSeq {
			continue
		}
		if err := os.Remove(j.segmentPath(s)); err != nil {
			return fmt.Errorf("store: drop compacted segment: %w", err)
		}
	}
	return syncDir(j.dir)
}

// Replay streams every durable record to fn in append order. The
// snapshot flag tells the caller to reset its state before applying the
// record. A torn tail on the newest segment is dropped silently; a
// corrupt frame on an older (complete-by-construction) segment is an
// error. fn returning an error aborts the replay.
func (j *Journal) Replay(fn func(rec []byte, snapshot bool) error) (ReplayStats, error) {
	return ReplayDir(j.dir, fn)
}

// ReplayDir is Replay over a directory without opening it for appends —
// safe on a live journal owned by another process (the reader sees a
// valid prefix; a frame the writer is mid-way through writing reads as
// a torn tail).
func ReplayDir(dir string, fn func(rec []byte, snapshot bool) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := segmentsIn(dir)
	if err != nil {
		return st, err
	}
	for i, s := range seqs {
		last := i == len(seqs)-1
		if err := replaySegment(filepath.Join(dir, segmentName(s)), last, &st, fn); err != nil {
			return st, err
		}
	}
	return st, nil
}

func replaySegment(path string, tolerateTorn bool, st *ReplayStats, fn func([]byte, bool) error) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: read segment: %w", err)
	}
	off := 0
	for off < len(buf) {
		rec, flag, n, ok := decodeFrame(buf[off:])
		if !ok {
			if tolerateTorn {
				st.Torn += len(buf) - off
				return nil
			}
			return fmt.Errorf("store: corrupt frame at %s+%d", filepath.Base(path), off)
		}
		st.Records++
		st.Bytes += int64(len(rec))
		snap := flag == flagSnapshot
		if snap {
			st.Snapshots++
		}
		if err := fn(rec, snap); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// decodeFrame parses one frame from the head of buf. ok is false for a
// short, oversized or CRC-mismatched frame — indistinguishable from a
// torn write, which is the point.
func decodeFrame(buf []byte) (rec []byte, flag byte, n int, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, 0, false
	}
	ln := binary.LittleEndian.Uint32(buf[0:])
	if ln > maxRecord || int64(frameHeaderLen)+int64(ln) > int64(len(buf)) {
		return nil, 0, 0, false
	}
	end := frameHeaderLen + int(ln)
	if crc32.Checksum(buf[8:end], crcTable) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, 0, false
	}
	return buf[frameHeaderLen:end], buf[8], end, true
}

// Close fsyncs and closes the current segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.cur == nil {
		return nil
	}
	err := j.opts.Sync(j.cur)
	if cerr := j.cur.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotate fsyncs and closes the current segment and opens segment seq.
func (j *Journal) rotate(seq int) error {
	if j.cur != nil {
		if err := j.opts.Sync(j.cur); err != nil {
			return fmt.Errorf("store: fsync on rotate: %w", err)
		}
		if err := j.cur.Close(); err != nil {
			return err
		}
		j.cur = nil
	}
	f, err := os.OpenFile(j.segmentPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	j.cur, j.curSeq, j.curSize = f, seq, 0
	return nil
}

func segmentName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

func (j *Journal) segmentPath(seq int) string { return filepath.Join(j.dir, segmentName(seq)) }

func (j *Journal) segments() ([]int, error) { return segmentsIn(j.dir) }

func segmentsIn(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// validPrefix scans a segment and returns the byte length of its valid
// frame prefix.
func validPrefix(path string) (int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := 0
	for off < len(buf) {
		_, _, n, ok := decodeFrame(buf[off:])
		if !ok {
			break
		}
		off += n
	}
	return int64(off), nil
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
