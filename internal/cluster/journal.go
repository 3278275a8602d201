package cluster

// The durable control plane: job lifecycle events stream to a JobLog as
// they happen — under the scheduler mutex, but for the accept record,
// which is written beside the job's first tasks (acceptLocked) — and
// Recover rebuilds the scheduler's job state from a replay after a
// master crash. No record of a job precedes its accept record.
//
// The master owns C (the paper's centralized data): a block of a job's
// result is committed once a flush commit has written its final value
// into the master's matrix, and until then no task has modified it, so
// an uncommitted block is recomputed bit-exact from the master-owned
// operands. The durable truth of a job is therefore its matrices and
// which blocks are committed, and its cutter is the one record of the
// rest: every uncommitted block is in the cutter's free list or in a
// task cut from it. The journal persists exactly that.
//
//   - accepted carries the job id, idempotency key and the operand
//     matrices verbatim. Replaying it re-runs the same deterministic
//     admission path as SubmitJob (a cutter over the C grid; for LU,
//     the stage-0 panel factorization). Its mode byte is
//     written as 0 and ignored on read: every job is cut at dispatch.
//   - chunk is appended when a chunk's result lands in the job matrix
//     (the commit of its worker's Result). Replaying
//     it is a pure region claim: the tiles are copied back and the
//     region is claimed from the cutter, and a record that does not take
//     every one of its blocks is refused as corrupt — they were committed
//     already, or never cut. Its seq only keeps the seqs issued after a
//     restart fresh. An LU stage whose last chunk replays opens the next
//     one — or fails the job on a zero pivot — just as the live commit
//     did.
//   - done records the terminal state (including quarantine).
//   - quarantine records a worker parked for corrupt results, so the
//     refusal to readmit it survives a master restart.
//
// Recover starts from the empty job table a snapshot record resets to
// (resetJobsLocked), so replaying a journal twice is replaying it once.
//
// A snapshot record (written by CompactLog through the store's segment
// compaction) is the job table: per job its spec, state, matrices, seq
// counter, commit and requeue counts, LU stage and one free list — the
// cutter's free rectangles plus the region of every task cut but not
// committed: pending or in flight (freeListLocked). Each seq's
// region goes in once: a speculative duplicate is one seq in flight on
// two workers, and a region freed twice would be cut twice. A snapshot
// is applied without re-running admission, so an LU job's
// already-factored panels are never factored twice, and every free list
// passes the cutter's Check before anything is cut from it. The one
// exception is a job whose state byte is 0: a master that capped the
// jobs it ran had admitted it but not started it, so it starts on load
// as it would have at admission. A terminal
// job's released operands are written as absent, and a job whose result
// was released too is left out altogether — nobody can ask for it, and
// a log that re-wrote every job ever served would grow without bound.
//
// Snapshots are versioned. A v1 record leads with snapshotV1; a record
// without it is in the v0 layout, written before snapshots held free
// lists — a seq-keyed task list, an optional cutter and unused counter
// slots per job — and loads through one converter (v0Tail) into the
// same free list.
//
// Records are little-endian throughout, and their floats are the one
// encoding internal/matrix defines — on a little-endian build a block's
// own memory. So a record is parts (recEnc): a few bytes of integer
// fields between views of the job's blocks, which the store writes
// straight from them (a big-endian build copies each block). The bytes
// are those the per-element loop writes (journal_format_test.go keeps
// it as the reference), so stores written before replay unchanged. A
// replay decodes every matrix into blocks of the cluster's pool and
// marks the job Pooled, so a recovered job is released as a submitted
// one is.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/store"
)

// JobLog is the durable sink and replay source for job lifecycle
// events. Append must be atomic-or-error and durable on nil return. The
// snapshot flag on replay marks a record that resets all prior state.
// *store.Journal is the production implementation (via NewStoreLog).
//
// A JobLog with gatherLog's methods is handed each record as parts,
// views of live job blocks among them; any other, the parts joined.
// Either way the bytes are valid only until the call returns.
type JobLog interface {
	Append(rec []byte) error
	Replay(fn func(rec []byte, snapshot bool) error) error
	Compact(snapshot []byte) error
}

// gatherLog writes a record given as parts, each from where it lies.
type gatherLog interface {
	AppendV(parts ...[]byte) error
	CompactV(parts ...[]byte) error
}

// storeLog adapts *store.Journal to JobLog and gatherLog.
type storeLog struct{ *store.Journal }

// NewStoreLog wraps a write-ahead journal as the cluster's JobLog.
func NewStoreLog(j *store.Journal) JobLog { return storeLog{j} }

func (s storeLog) Replay(fn func(rec []byte, snapshot bool) error) error {
	_, err := s.Journal.Replay(fn)
	return err
}

// Event type tags (first byte of every non-snapshot record).
const (
	evAccepted         byte = 1
	evChunk            byte = 2
	evDone             byte = 3
	evWorkerQuarantine byte = 4
)

// snapshotV1 leads a v1 snapshot record. A v0 snapshot leads with its
// next job id, which the builds that wrote v0 kept below 2²⁹ at
// admission, so the top bit tells the two layouts apart.
const snapshotV1 uint32 = 1<<31 | 1

// RecoveryStats summarizes one Recover pass.
type RecoveryStats struct {
	Events    int // journal records applied
	Jobs      int // accepted events seen (snapshot jobs included)
	Resumed   int // jobs left unfinished, requeued for dispatch
	Done      int // jobs already terminal Done
	Failed    int // jobs already terminal Failed (quarantined included)
	Chunks    int // chunk commits replayed
	Snapshots int // snapshot records applied
}

// ChunkCommit is one committed chunk as recorded in the journal,
// decoded by ReplayChunkCommits for offline inspection (tests assert
// that no block — (Job, K, I, J) — is committed twice).
type ChunkCommit struct {
	Job                JobID
	Seq, K             int
	I0, J0, Rows, Cols int
}

// ReplayChunkCommits reads a journal directory without opening it for
// appends and returns every chunk-commit event in order, plus the
// number of done events. Safe against a live writer.
func ReplayChunkCommits(dir string) (chunks []ChunkCommit, done int, err error) {
	_, err = store.ReplayDir(dir, func(rec []byte, snapshot bool) error {
		if snapshot || len(rec) == 0 {
			return nil
		}
		switch rec[0] {
		case evChunk:
			d := &recDec{buf: rec[1:]}
			c := d.chunkHead()
			if d.err != nil {
				return d.err
			}
			chunks = append(chunks, c)
		case evDone:
			done++
		}
		return nil
	})
	return chunks, done, err
}

// --- emission (called under cl.mu) ----------------------------------------

// writeLogLocked appends a record given as parts, or with snapshot set
// compacts the log to it (writeLog). On failure the log is latched
// broken.
func (cl *Cluster) writeLogLocked(snapshot bool, parts [][]byte) error {
	if cl.log == nil {
		return cl.logErr
	}
	err := writeLog(cl.log, snapshot, parts)
	if err != nil {
		cl.latchLocked(err)
	}
	return err
}

// writeLog appends a record given as parts to log, or with snapshot set
// compacts log to it: as parts to a gatherLog, joined to any other
// JobLog.
func writeLog(log JobLog, snapshot bool, parts [][]byte) error {
	g, gathers := log.(gatherLog)
	switch {
	case gathers && snapshot:
		return g.CompactV(parts...)
	case gathers:
		return g.AppendV(parts...)
	case snapshot:
		return log.Compact(slices.Concat(parts...))
	default:
		return log.Append(slices.Concat(parts...))
	}
}

// latchLocked latches the log broken on its first failure (cl.logErr),
// so no further admission happens against a journal that cannot persist
// it, while in-memory jobs run to completion.
func (cl *Cluster) latchLocked(err error) {
	if cl.logErr == nil {
		cl.logErr = err
	}
	cl.log = nil
}

// encodeAccepted is the accept record of job id, as parts.
func encodeAccepted(id JobID, key uint64, spec JobSpec) [][]byte {
	e := &recEnc{}
	e.u8(evAccepted)
	e.u32(uint32(id))
	e.u64(key)
	e.u8(byte(spec.Kind))
	e.u8(0) // mode: every job is cut at dispatch
	e.u32(uint32(spec.Mu))
	e.mats(&spec)
	return e.record()
}

// logChunkLocked records a committed chunk, reading the final tile
// values out of the job matrix (they were just copied in).
func (cl *Cluster) logChunkLocked(j *job, t *Task) {
	if cl.log == nil {
		return
	}
	dst := j.spec.result()
	e := &recEnc{}
	e.u8(evChunk)
	e.u32(uint32(j.id))
	e.u32(uint32(t.Seq))
	e.u32(uint32(t.K))
	e.u32(uint32(t.I0))
	e.u32(uint32(t.J0))
	e.u32(uint32(t.Rows))
	e.u32(uint32(t.Cols))
	for i := t.I0; i < t.I0+t.Rows; i++ {
		for jj := t.J0; jj < t.J0+t.Cols; jj++ {
			e.floats(dst.Block(i, jj).Data)
		}
	}
	cl.writeLogLocked(false, e.record()) //nolint:errcheck // latched in cl.logErr
}

// logDoneLocked records a job's terminal state — once its accept record
// is durable: acceptLocked writes the record of a job that ended before.
func (cl *Cluster) logDoneLocked(j *job) {
	if cl.log == nil || j.accepting {
		return
	}
	e := &recEnc{}
	e.u8(evDone)
	e.u32(uint32(j.id))
	e.u8(byte(j.state))
	if j.quarantined {
		e.u8(1)
	} else {
		e.u8(0)
	}
	msg := ""
	if j.err != nil {
		msg = j.err.Error()
	}
	e.str(msg)
	cl.writeLogLocked(false, e.record()) //nolint:errcheck // latched in cl.logErr
}

// logWorkerQuarantineLocked records a worker quarantined for corrupt
// results; replay refuses the id on rejoin after a restart.
func (cl *Cluster) logWorkerQuarantineLocked(id string, strikes int, reason string) {
	if cl.log == nil {
		return
	}
	e := &recEnc{}
	e.u8(evWorkerQuarantine)
	e.str(id)
	e.u32(uint32(strikes))
	e.str(reason)
	cl.writeLogLocked(false, e.record()) //nolint:errcheck // latched in cl.logErr
}

// --- recovery -------------------------------------------------------------

// Recover replays the configured JobLog and rebuilds the job table:
// terminal jobs land with their results retrievable, unfinished jobs
// re-enter the dispatch pool with exactly their uncommitted blocks left
// to cut. Call it once, after New and before any worker joins or job
// submits. With no log configured it is a no-op. Replay starts from an
// empty job table, so a second Recover over the same journal leaves the
// state unchanged.
func (cl *Cluster) Recover() (RecoveryStats, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var rs RecoveryStats
	if cl.log == nil {
		return rs, nil
	}
	if cl.closed {
		return rs, ErrClosed
	}
	// Replay drives the same admission/commit paths as live operation;
	// drop the log for the duration so they do not re-append what is
	// being read.
	log := cl.log
	cl.log = nil
	cl.resetJobsLocked()
	err := log.Replay(func(rec []byte, snapshot bool) error {
		rs.Events++
		if snapshot {
			rs.Snapshots++
			return cl.applySnapshotLocked(rec, &rs)
		}
		return cl.applyEventLocked(rec, &rs)
	})
	cl.log = log
	if err != nil {
		return rs, fmt.Errorf("cluster: recover: %w", err)
	}
	for _, j := range cl.jobs {
		switch j.state {
		case Done:
			rs.Done++
		case Failed:
			rs.Failed++
		default:
			rs.Resumed++
			continue
		}
		// Whoever submitted a terminal unkeyed job died with the previous
		// incarnation: nobody can ask for its result anymore.
		if j.key == 0 {
			j.resultFree = true
			cl.releaseLocked(j)
		}
	}
	cl.cond.Broadcast()
	return rs, nil
}

// CompactLog snapshots the whole job table into the journal and drops
// the segments before it — the boot-time (or periodic) bound on replay
// length. The regions of tasks in flight are freed in the snapshot, so
// one taken mid-run loses no work. It waits for the accept records
// being appended: a snapshot must not hold a job whose record could
// still land after it, in a segment it drops.
func (cl *Cluster) CompactLog() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for cl.accepting > 0 {
		cl.cond.Wait()
	}
	if cl.log == nil {
		return cl.logErr
	}
	return cl.writeLogLocked(true, cl.encodeSnapshotLocked())
}

// resetJobsLocked empties the job table: the state Recover starts from
// and a snapshot record resets to.
func (cl *Cluster) resetJobsLocked() {
	for _, j := range cl.live {
		if j.state == Running {
			close(j.doneCh)
		}
	}
	cl.jobs = make(map[JobID]*job)
	cl.order, cl.live = nil, nil
	cl.keys = make(map[uint64]JobID)
	cl.quarantined = make(map[string]quarantineInfo)
	cl.nextID, cl.rr = 0, 0
}

func (cl *Cluster) applyEventLocked(rec []byte, rs *RecoveryStats) error {
	if len(rec) == 0 {
		return errors.New("cluster: empty journal record")
	}
	d := &recDec{buf: rec[1:], pool: cl.pool}
	switch rec[0] {
	case evAccepted:
		id := JobID(d.u32())
		key := d.u64()
		spec := JobSpec{Kind: JobKind(d.u8()), Pooled: true}
		d.u8() // mode, ignored
		spec.Mu = int(d.u32())
		d.mats(&spec)
		if d.err != nil {
			return fmt.Errorf("cluster: accepted record: %w", d.err)
		}
		rs.Jobs++
		if cl.jobs[id] != nil {
			return fmt.Errorf("cluster: job %d accepted twice", id)
		}
		if err := validateSpec(spec); err != nil {
			return err
		}
		j := newJob(id, spec)
		j.key = key
		cl.addJobLocked(j)
		cl.nextID = max(cl.nextID, id+1)
		cl.startLocked(j)
	case evChunk:
		c := d.chunkHead()
		if d.err != nil {
			return fmt.Errorf("cluster: chunk record: %w", d.err)
		}
		j := cl.jobs[c.Job]
		if j == nil {
			return fmt.Errorf("cluster: chunk record for unknown job %d", c.Job)
		}
		rs.Chunks++
		if c.Rows < 1 || c.Cols < 1 || j.cutter.Claim(c.I0, c.J0, c.Rows, c.Cols) != c.Rows*c.Cols {
			return fmt.Errorf("cluster: chunk record %d/%d claims blocks not left to commit", c.Job, c.Seq)
		}
		dst := j.spec.result()
		for i := 0; i < c.Rows; i++ {
			for jj := 0; jj < c.Cols; jj++ {
				d.readFloats(dst.Block(c.I0+i, c.J0+jj).Data)
			}
		}
		if d.err != nil {
			return fmt.Errorf("cluster: chunk record %d/%d: %w", c.Job, c.Seq, d.err)
		}
		j.nextSeq = max(j.nextSeq, c.Seq+1)
		j.total++
		j.done++
		cl.settleLocked(j)
	case evDone:
		id := JobID(d.u32())
		state := JobState(d.u8())
		quarantined := d.u8() == 1
		msg := d.str()
		if d.err != nil {
			return fmt.Errorf("cluster: done record: %w", d.err)
		}
		if state != Done && state != Failed {
			return fmt.Errorf("cluster: done record for job %d: state byte %d", id, state)
		}
		j := cl.jobs[id]
		if j == nil {
			return fmt.Errorf("cluster: done record for unknown job %d", id)
		}
		if j.state == Done || j.state == Failed {
			return nil // finishJobLocked already fired off the chunk replay
		}
		j.quarantined = quarantined
		var jerr error
		if msg != "" {
			jerr = errors.New(msg)
		}
		cl.finishJobLocked(j, state, jerr)
	case evWorkerQuarantine:
		id := d.str()
		strikes := int(d.u32())
		reason := d.str()
		if d.err != nil {
			return fmt.Errorf("cluster: quarantine record: %w", d.err)
		}
		cl.quarantined[id] = quarantineInfo{strikes: strikes, reason: reason}
	default:
		return fmt.Errorf("cluster: unknown journal record type %d", rec[0])
	}
	return nil
}

// --- snapshots ------------------------------------------------------------

// encodeSnapshotLocked serializes the job table in the v1 layout — no
// admission re-run on load, so already-factored LU panels stay factored
// — as parts.
func (cl *Cluster) encodeSnapshotLocked() [][]byte {
	var kept []*job
	for _, id := range cl.order {
		if j := cl.jobs[id]; j.spec.result() != nil {
			kept = append(kept, j)
		}
	}
	e := &recEnc{}
	e.u32(snapshotV1)
	e.u32(uint32(cl.nextID))
	e.u32(uint32(len(kept)))
	for _, j := range kept {
		e.u32(uint32(j.id))
		e.u64(j.key)
		e.u8(byte(j.spec.Kind))
		e.u8(byte(j.state))
		if j.quarantined {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(j.spec.Mu))
		msg := ""
		if j.err != nil {
			msg = j.err.Error()
		}
		e.str(msg)
		e.mats(&j.spec)
		e.u32(uint32(j.nextSeq))
		e.u32(uint32(j.done))
		e.u32(uint32(j.requeues))
		e.u32(uint32(j.stage))
		rects := cl.freeListLocked(j)
		e.u32(uint32(len(rects)))
		for _, r := range rects {
			for _, v := range r {
				e.u32(uint32(v))
			}
		}
	}
	// Quarantined-worker table (sorted for deterministic snapshots), so a
	// compacted journal still refuses the ids after a restart.
	e.u32(uint32(len(cl.quarantined)))
	for _, id := range slices.Sorted(maps.Keys(cl.quarantined)) {
		qi := cl.quarantined[id]
		e.str(id)
		e.u32(uint32(qi.strikes))
		e.str(qi.reason)
	}
	return e.record()
}

// freeListLocked is j's uncommitted work as one free list: the cutter's
// free rectangles, then the region of every task cut but not committed —
// pending or in flight on a live worker — once per seq, in seq order. A
// task in flight has not modified master C, so its region is as free as
// one never cut.
func (cl *Cluster) freeListLocked(j *job) [][4]int {
	cut := make(map[int]Chunk)
	for _, t := range j.pending {
		cut[t.Seq] = t.Chunk
	}
	for _, w := range cl.reg.workers {
		if w.dead {
			continue
		}
		for _, t := range w.inflight {
			if t.Job == j.id {
				cut[t.Seq] = t.Chunk
			}
		}
	}
	rects := j.cutter.Rects()
	for _, seq := range slices.Sorted(maps.Keys(cut)) {
		ch := cut[seq]
		rects = append(rects, [4]int{ch.I0, ch.J0, ch.Rows, ch.Cols})
	}
	return rects
}

// applySnapshotLocked resets the job table to the snapshot, of either
// layout. Every job's uncommitted work comes back as its cutter's free
// list, checked before anything is cut from it, and nothing pending or
// in flight: the cut count restarts at the commit count.
func (cl *Cluster) applySnapshotLocked(rec []byte, rs *RecoveryStats) error {
	cl.resetJobsLocked()
	d := &recDec{buf: rec, pool: cl.pool}
	first := d.u32()
	v1 := first == snapshotV1
	if v1 {
		first = d.u32()
	}
	cl.nextID = JobID(first)
	n := int(d.u32())
	for i := 0; i < n; i++ {
		j := &job{doneCh: make(chan struct{}), spec: JobSpec{Pooled: true}}
		j.id = JobID(d.u32())
		j.key = d.u64()
		j.spec.Kind = JobKind(d.u8())
		// State 0: admitted but not started; it starts on load.
		j.state = JobState(d.u8())
		unstarted := j.state == 0
		switch j.state {
		case 0:
			j.state = Running
		case Running, Done, Failed:
		default:
			return fmt.Errorf("cluster: snapshot job %d: state byte %d", j.id, j.state)
		}
		j.quarantined = d.u8() == 1
		j.spec.Mu = int(d.u32())
		if msg := d.str(); msg != "" {
			j.err = errors.New(msg)
		}
		d.mats(&j.spec)
		var rects [][4]int
		if v1 {
			j.nextSeq = int(d.u32())
			j.done = int(d.u32())
			j.requeues = int(d.u32())
			j.stage = int(d.u32())
			rects = d.rects()
		} else {
			rects = j.v0Tail(d)
		}
		res := j.spec.result()
		if d.err == nil && res == nil {
			d.err = errors.New("cluster: snapshot job without its result matrix")
		}
		if d.err != nil {
			return fmt.Errorf("cluster: snapshot job %d: %w", i, d.err)
		}
		j.q = res.Q
		j.total = j.done
		j.cutter = newCutterFromRects(res.BR, res.BC, rects)
		if err := j.cutter.Check(); err != nil {
			return fmt.Errorf("cluster: snapshot job %d: %w", j.id, err)
		}
		cl.addJobLocked(j)
		if unstarted {
			cl.startLocked(j)
		}
		rs.Jobs++
	}
	// Quarantined-worker table. v0 snapshots written before verification
	// existed end here; keep accepting them.
	if d.err != nil || (!v1 && len(d.buf) == 0) {
		return d.err
	}
	nq := int(d.u32())
	for i := 0; i < nq; i++ {
		id := d.str()
		strikes := int(d.u32())
		reason := d.str()
		if d.err != nil {
			return fmt.Errorf("cluster: snapshot quarantine entry %d: %w", i, d.err)
		}
		cl.quarantined[id] = quarantineInfo{strikes: strikes, reason: reason}
	}
	return d.err
}

// v0Tail is the converter from the v0 snapshot layout: it reads the
// rest of a job as that layout wrote it — nine counter slots, a
// seq-keyed task list, an optional cutter — into j and returns the job's
// free list: the cutter's rectangles, then the region of each distinct
// listed seq, in seq order. The list holds a speculative duplicate
// twice, and a pre-cut or mid-stage LU job has no cutter: its tasks are
// all its work.
func (j *job) v0Tail(d *recDec) [][4]int {
	j.nextSeq = int(d.u32())
	d.u32() // the cut count: the commit count on load
	j.done = int(d.u32())
	j.requeues = int(d.u32())
	j.stage = int(d.u32())
	d.take(16) // the stage's task count, the LU block order, the re-cut count, the update depth
	cut := make(map[int][4]int)
	for k := d.u32(); k > 0 && d.err == nil; k-- {
		seq := int(d.u32())
		d.u32() // the LU panel: the job's stage
		cut[seq] = [4]int{int(d.u32()), int(d.u32()), int(d.u32()), int(d.u32())}
		d.u32() // the update depth: the job's
	}
	var rects [][4]int
	if d.u8() == 1 {
		rects = d.rects()
	}
	for _, seq := range slices.Sorted(maps.Keys(cut)) {
		rects = append(rects, cut[seq])
	}
	return rects
}

// --- record encoding ------------------------------------------------------

// recEnc builds a record as parts: runs of its own bytes (the integer
// fields; on a big-endian build the floats too) between views of the
// blocks whose memory is their encoding (matrix.FloatsView).
type recEnc struct {
	buf   []byte // the record's bytes since its last part
	parts [][]byte
}

// record returns the record's parts so far, its pending bytes included.
func (e *recEnc) record() [][]byte {
	if len(e.buf) > 0 {
		e.parts, e.buf = append(e.parts, e.buf), nil
	}
	return e.parts
}

func (e *recEnc) u8(v byte) { e.buf = append(e.buf, v) }

func (e *recEnc) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *recEnc) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *recEnc) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// floats adds v's encoding: a view of v where there is one, else a copy.
func (e *recEnc) floats(v []float64) {
	if bs, ok := matrix.FloatsView(v); ok {
		e.parts = append(e.record(), bs)
	} else {
		e.buf = matrix.AppendFloats(e.buf, v)
	}
}

// mats writes the spec's matrices: M for LU, else C, A and B.
func (e *recEnc) mats(s *JobSpec) {
	if s.Kind == LU {
		e.mat(s.M)
		return
	}
	e.mat(s.C)
	e.mat(s.A)
	e.mat(s.B)
}

// mat writes a matrix; nil (a released operand) is written as the 0×0
// matrix of q = 0, which no real matrix encodes to.
func (e *recEnc) mat(m *matrix.Blocked) {
	if m == nil {
		m = &matrix.Blocked{}
	}
	e.u32(uint32(m.BR))
	e.u32(uint32(m.BC))
	e.u32(uint32(m.Q))
	for _, b := range m.Blocks { // row-major
		e.floats(b.Data)
	}
}

// recDec reads a record. Its matrices are decoded into blocks of pool
// (a nil pool allocates them).
type recDec struct {
	buf  []byte
	err  error
	pool *engine.BlockPool
}

var errShortRecord = errors.New("cluster: truncated journal record")

func (d *recDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = errShortRecord
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *recDec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *recDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *recDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *recDec) str() string {
	b := d.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	return string(d.take(n))
}

func (d *recDec) readFloats(dst []float64) {
	if b := d.take(8 * len(dst)); b != nil {
		matrix.DecodeFloatsInto(dst, b)
	}
}

// chunkHead decodes a chunk record's header, leaving d at its tiles.
func (d *recDec) chunkHead() ChunkCommit {
	return ChunkCommit{Job: JobID(d.u32()), Seq: int(d.u32()), K: int(d.u32()),
		I0: int(d.u32()), J0: int(d.u32()), Rows: int(d.u32()), Cols: int(d.u32())}
}

// rects decodes a free list: its length, then {i0, j0, rows, cols} each.
func (d *recDec) rects() [][4]int {
	n := int(d.u32())
	if len(d.buf) < 16*n {
		d.err = errShortRecord
		return nil
	}
	out := make([][4]int, n)
	for k := range out {
		out[k] = [4]int{int(d.u32()), int(d.u32()), int(d.u32()), int(d.u32())}
	}
	return out
}

// mats reads the matrices of a spec of kind s.Kind into s.
func (d *recDec) mats(s *JobSpec) {
	if s.Kind == LU {
		s.M = d.mat()
		return
	}
	s.C = d.mat()
	s.A = d.mat()
	s.B = d.mat()
}

// maxSnapshotDim bounds a decoded matrix dimension so a corrupt record
// cannot provoke a giant allocation (matches netmw's wire guard scale).
const maxSnapshotDim = 1 << 20

func (d *recDec) mat() *matrix.Blocked {
	br := int(d.u32())
	bc := int(d.u32())
	q := int(d.u32())
	if d.err != nil || (br == 0 && bc == 0 && q == 0) {
		return nil // truncated, or a released operand
	}
	if br < 1 || bc < 1 || q < 1 || br > maxSnapshotDim || bc > maxSnapshotDim || q > maxSnapshotDim {
		d.err = fmt.Errorf("cluster: implausible matrix %dx%d blocks q=%d in journal", br, bc, q)
		return nil
	}
	if need := br * bc * q * q * 8; len(d.buf) < need {
		d.err = errShortRecord
		return nil
	}
	m := &matrix.Blocked{BR: br, BC: bc, Q: q, Blocks: make([]*matrix.Block, br*bc)}
	for n := range m.Blocks {
		m.Blocks[n] = &matrix.Block{I: n / bc, J: n % bc, Q: q, Data: d.pool.Get(q * q)}
		d.readFloats(m.Blocks[n].Data)
	}
	return m
}
