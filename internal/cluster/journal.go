package cluster

// The durable control plane: job lifecycle events stream to a JobLog as
// they happen under the scheduler mutex, and Recover rebuilds the
// scheduler's job state from a replay after a master crash.
//
// Three event kinds suffice because everything else the scheduler knows
// is derivable:
//
//   - accepted carries the job id, idempotency key and the operand
//     matrices verbatim. Replaying it re-runs the same deterministic
//     admission path as SubmitJob (max-reuse pre-cut or adaptive cutter,
//     LU stage-0 panel factorization), so the rebuilt task pool is
//     identical to the live one.
//   - chunk is appended when a chunk's result lands in the job matrix
//     (the flush commit of the last of an acked chunk's tiles). Replaying
//     it copies the committed tiles back and retires the matching
//     pending task, so recovery requeues exactly the unfinished work.
//     Chunks a worker computed but never committed are absent by
//     construction — they rerun from the master-owned operands, which a
//     dirty task never modified, so the recomputation is bit-exact.
//   - done records the terminal state (including quarantine).
//   - quarantine records a worker parked for corrupt results, so the
//     refusal to readmit it survives a master restart.
//
// Replay is idempotent: jobs are keyed by id, committed chunks by seq
// (j.doneSeqs), so replaying a journal twice — or a journal whose tail
// segments predate a snapshot — converges to the same state.
//
// A snapshot record (written by CompactLog through the store's segment
// compaction) is the whole job table serialized verbatim — counters,
// pending task descriptors, cutter free rectangles, matrices — and is
// applied without re-running admission, so an LU job's already-factored
// panels are never factored twice. A terminal job's released operands
// are written as absent, and a job whose result was released too is left
// out altogether — nobody can ask for it, and a log that re-wrote every
// job ever served would grow without bound.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/store"
)

// JobLog is the durable sink and replay source for job lifecycle
// events. Append must be atomic-or-error and durable on nil return; the
// snapshot flag on replay marks a record that resets all prior state.
// *store.Journal is the production implementation (via NewStoreLog).
type JobLog interface {
	Append(rec []byte) error
	Replay(fn func(rec []byte, snapshot bool) error) error
	Compact(snapshot []byte) error
}

// storeLog adapts *store.Journal to JobLog.
type storeLog struct{ j *store.Journal }

// NewStoreLog wraps a write-ahead journal as the cluster's JobLog.
func NewStoreLog(j *store.Journal) JobLog { return storeLog{j} }

func (s storeLog) Append(rec []byte) error   { return s.j.Append(rec) }
func (s storeLog) Compact(snap []byte) error { return s.j.Compact(snap) }
func (s storeLog) Replay(fn func(rec []byte, snapshot bool) error) error {
	_, err := s.j.Replay(fn)
	return err
}

// Event type tags (first byte of every non-snapshot record).
const (
	evAccepted         byte = 1
	evChunk            byte = 2
	evDone             byte = 3
	evWorkerQuarantine byte = 4
)

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
// zero duplicate execution by checking (Job, Seq) uniqueness).
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
			id := JobID(d.u32())
			seq, k := int(d.u32()), int(d.u32())
			i0, j0 := int(d.u32()), int(d.u32())
			rows, cols := int(d.u32()), int(d.u32())
			if d.err != nil {
				return d.err
			}
			chunks = append(chunks, ChunkCommit{id, seq, k, i0, j0, rows, cols})
		case evDone:
			done++
		}
		return nil
	})
	return chunks, done, err
}

// --- emission (called under cl.mu) ----------------------------------------

// appendLogLocked writes one event; on failure the log is latched
// broken (cl.logErr) so no further admission happens against a journal
// that cannot persist it, while in-memory jobs run to completion.
func (cl *Cluster) appendLogLocked(rec []byte) error {
	if cl.log == nil {
		return cl.logErr
	}
	if err := cl.log.Append(rec); err != nil {
		cl.logErr = err
		cl.log = nil
		return err
	}
	return nil
}

func encodeAccepted(id JobID, key uint64, spec JobSpec, adaptive bool) []byte {
	// Sized up front: grown by append, the record of a job's operands
	// left several times its own size in garbage per submit.
	e := &recEnc{buf: make([]byte, 0, 32+matLen(spec.M)+matLen(spec.C)+matLen(spec.A)+matLen(spec.B))}
	e.u8(evAccepted)
	e.u32(uint32(id))
	e.u64(key)
	e.u8(byte(spec.Kind))
	if adaptive {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u32(uint32(spec.Mu))
	if spec.Kind == LU {
		e.mat(spec.M)
	} else {
		e.mat(spec.C)
		e.mat(spec.A)
		e.mat(spec.B)
	}
	return e.buf
}

// logChunkLocked records a committed chunk, reading the final tile
// values out of the job matrix (they were just copied in).
func (cl *Cluster) logChunkLocked(j *job, t *Task) {
	if j.doneSeqs == nil {
		j.doneSeqs = make(map[int]bool)
	}
	j.doneSeqs[t.Seq] = true
	if cl.log == nil {
		return
	}
	ch := t.Chunk
	dst := j.spec.result()
	e := &recEnc{buf: make([]byte, 0, 32+8*ch.Rows*ch.Cols*dst.Q*dst.Q)}
	e.u8(evChunk)
	e.u32(uint32(j.id))
	e.u32(uint32(t.Seq))
	e.u32(uint32(t.K))
	e.u32(uint32(ch.I0))
	e.u32(uint32(ch.J0))
	e.u32(uint32(ch.Rows))
	e.u32(uint32(ch.Cols))
	for i := 0; i < ch.Rows; i++ {
		for jj := 0; jj < ch.Cols; jj++ {
			e.floats(dst.Block(ch.I0+i, ch.J0+jj).Data)
		}
	}
	cl.appendLogLocked(e.buf) //nolint:errcheck // latched in cl.logErr
}

func (cl *Cluster) logDoneLocked(j *job) {
	if cl.log == nil {
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
	cl.appendLogLocked(e.buf) //nolint:errcheck // latched in cl.logErr
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
	cl.appendLogLocked(e.buf) //nolint:errcheck // latched in cl.logErr
}

// --- recovery -------------------------------------------------------------

// Recover replays the configured JobLog and rebuilds the job table:
// terminal jobs land with their results retrievable, unfinished jobs
// re-enter the dispatch pool with exactly their uncommitted chunks
// pending. Call it once, after New and before any worker joins or job
// submits. With no log configured it is a no-op. Replay is idempotent —
// a second Recover over the same journal leaves the state unchanged.
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
// length. In-flight and dirty tasks are folded into the snapshot's
// pending pool, so a snapshot taken mid-run loses no work.
func (cl *Cluster) CompactLog() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.log == nil {
		return cl.logErr
	}
	snap := cl.encodeSnapshotLocked()
	if err := cl.log.Compact(snap); err != nil {
		cl.logErr = err
		cl.log = nil
		return err
	}
	return nil
}

func (cl *Cluster) applyEventLocked(rec []byte, rs *RecoveryStats) error {
	if len(rec) == 0 {
		return errors.New("cluster: empty journal record")
	}
	d := &recDec{buf: rec[1:]}
	switch rec[0] {
	case evAccepted:
		id := JobID(d.u32())
		key := d.u64()
		kind := JobKind(d.u8())
		adaptive := d.u8() == 1
		mu := int(d.u32())
		spec := JobSpec{Kind: kind, Mu: mu}
		if kind == LU {
			spec.M = d.mat()
		} else {
			spec.C = d.mat()
			spec.A = d.mat()
			spec.B = d.mat()
		}
		if d.err != nil {
			return fmt.Errorf("cluster: accepted record: %w", d.err)
		}
		rs.Jobs++
		if cl.jobs[id] != nil {
			return nil // second replay of the same journal
		}
		if err := validateSpec(spec); err != nil {
			return err
		}
		j := newJob(id, spec, adaptive)
		j.key = key
		cl.jobs[id] = j
		cl.order = append(cl.order, id)
		if key != 0 {
			cl.keys[key] = id
		}
		if id >= cl.nextID {
			cl.nextID = id + 1
		}
		// The same promotion gate as live admission: journal order is
		// mutex order, so a job that ran live is promoted here by the
		// time its chunk records replay.
		cl.promoteLocked()
	case evChunk:
		id := JobID(d.u32())
		seq, k := int(d.u32()), int(d.u32())
		i0, j0 := int(d.u32()), int(d.u32())
		rows, cols := int(d.u32()), int(d.u32())
		if d.err != nil {
			return fmt.Errorf("cluster: chunk record: %w", d.err)
		}
		j := cl.jobs[id]
		if j == nil {
			return fmt.Errorf("cluster: chunk record for unknown job %d", id)
		}
		rs.Chunks++
		if j.doneSeqs[seq] || j.state == Done || j.state == Failed {
			d.skipFloats(rows * cols * cl.taskQ(j) * cl.taskQ(j))
			return d.err // already applied (double replay) or job terminal
		}
		dst := j.spec.result()
		if i0 < 0 || j0 < 0 || rows < 1 || cols < 1 || i0+rows > dst.BR || j0+cols > dst.BC {
			return fmt.Errorf("cluster: chunk record %d/%d out of the job grid", id, seq)
		}
		for i := 0; i < rows; i++ {
			for jj := 0; jj < cols; jj++ {
				d.readFloats(dst.Block(i0+i, j0+jj).Data)
			}
		}
		if d.err != nil {
			return fmt.Errorf("cluster: chunk record %d/%d: %w", id, seq, d.err)
		}
		if j.doneSeqs == nil {
			j.doneSeqs = make(map[int]bool)
		}
		j.doneSeqs[seq] = true
		// Retire the matching pending task. Pre-cut and LU pools match by
		// seq (deterministic across live run and replay); adaptive jobs
		// re-claim the region from the cutter, since their seqs depend on
		// which worker asked first.
		matched := false
		for idx, t := range j.pending {
			if t.Seq == seq {
				j.pending = append(j.pending[:idx], j.pending[idx+1:]...)
				matched = true
				break
			}
		}
		if !matched && j.cutter != nil {
			j.cutter.Claim(i0, j0, rows, cols)
			j.total++
			if seq >= j.nextSeq {
				j.nextSeq = seq + 1
			}
			matched = true
		}
		if !matched {
			return fmt.Errorf("cluster: chunk record %d/%d matches no pending task", id, seq)
		}
		j.done++
		if k >= 0 && j.spec.Kind == LU {
			j.stageLeft--
			if j.stageLeft == 0 && len(j.pending) == 0 && j.inflight == 0 && j.dirty == 0 {
				j.stage++
				cl.advanceLULocked(j)
			}
		}
		if j.finished() {
			cl.finishJobLocked(j, Done, nil)
			cl.promoteLocked()
		}
	case evDone:
		id := JobID(d.u32())
		state := JobState(d.u8())
		quarantined := d.u8() == 1
		msg := d.str()
		if d.err != nil {
			return fmt.Errorf("cluster: done record: %w", d.err)
		}
		j := cl.jobs[id]
		if j == nil {
			return fmt.Errorf("cluster: done record for unknown job %d", id)
		}
		if j.state == Done || j.state == Failed {
			return nil // finishJobLocked already fired off the chunk replay
		}
		j.quarantined = quarantined
		j.pending = nil
		var jerr error
		if msg != "" {
			jerr = errors.New(msg)
		}
		cl.finishJobLocked(j, state, jerr)
		cl.promoteLocked()
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

// encodeSnapshotLocked serializes the job table verbatim — no admission
// re-run on load, so already-factored LU panels stay factored. Tasks in
// flight or dirty on workers are folded into the pending pool: the
// snapshot is what a crash right now should recover to, and those
// chunks' commits have not landed.
func (cl *Cluster) encodeSnapshotLocked() []byte {
	var kept []*job
	for _, id := range cl.order {
		if j := cl.jobs[id]; j.spec.result() != nil {
			kept = append(kept, j)
		}
	}
	e := &recEnc{}
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
		if j.spec.Kind == LU {
			e.mat(j.spec.M)
		} else {
			e.mat(j.spec.C)
			e.mat(j.spec.A)
			e.mat(j.spec.B)
		}
		e.u32(uint32(j.nextSeq))
		e.u32(uint32(j.total))
		e.u32(uint32(j.done))
		e.u32(uint32(j.requeues))
		e.u32(uint32(j.stage))
		e.u32(uint32(j.stageLeft))
		e.u32(uint32(j.luBlocks))
		e.u32(uint32(j.recuts))
		e.u32(uint32(j.gridT))
		tasks := append([]*Task(nil), j.pending...)
		for _, w := range cl.reg.workers {
			if w.dead {
				continue
			}
			for _, t := range w.inflight {
				if t.Job == j.id {
					tasks = append(tasks, t)
				}
			}
			for _, dt := range w.dirty {
				if dt.task.Job == j.id {
					tasks = append(tasks, dt.task)
				}
			}
		}
		e.u32(uint32(len(tasks)))
		for _, t := range tasks {
			e.u32(uint32(t.Seq))
			e.u32(uint32(t.K))
			e.u32(uint32(t.Chunk.I0))
			e.u32(uint32(t.Chunk.J0))
			e.u32(uint32(t.Chunk.Rows))
			e.u32(uint32(t.Chunk.Cols))
			e.u32(uint32(t.Steps))
		}
		if j.cutter == nil {
			e.u8(0)
		} else {
			e.u8(1)
			rects := j.cutter.Rects()
			e.u32(uint32(len(rects)))
			for _, r := range rects {
				e.u32(uint32(r[0]))
				e.u32(uint32(r[1]))
				e.u32(uint32(r[2]))
				e.u32(uint32(r[3]))
			}
		}
	}
	// Quarantined-worker table (sorted for deterministic snapshots), so a
	// compacted journal still refuses the ids after a restart.
	qids := make([]string, 0, len(cl.quarantined))
	for id := range cl.quarantined {
		qids = append(qids, id)
	}
	sort.Strings(qids)
	e.u32(uint32(len(qids)))
	for _, id := range qids {
		qi := cl.quarantined[id]
		e.str(id)
		e.u32(uint32(qi.strikes))
		e.str(qi.reason)
	}
	return e.buf
}

// applySnapshotLocked resets the job table to the snapshot. Counters
// that track in-flight state (inflight, dirty) restart at zero — the
// snapshot folded those tasks into pending.
func (cl *Cluster) applySnapshotLocked(rec []byte, rs *RecoveryStats) error {
	for _, j := range cl.jobs {
		if j.state == Queued || j.state == Running {
			close(j.doneCh)
		}
	}
	cl.jobs = make(map[JobID]*job)
	cl.order = nil
	cl.keys = make(map[uint64]JobID)
	cl.running = 0
	cl.rr = 0

	d := &recDec{buf: rec}
	cl.nextID = JobID(d.u32())
	n := int(d.u32())
	for i := 0; i < n; i++ {
		j := &job{doneCh: make(chan struct{})}
		j.id = JobID(d.u32())
		j.key = d.u64()
		j.spec.Kind = JobKind(d.u8())
		j.state = JobState(d.u8())
		j.quarantined = d.u8() == 1
		j.spec.Mu = int(d.u32())
		if msg := d.str(); msg != "" {
			j.err = errors.New(msg)
		}
		if j.spec.Kind == LU {
			j.spec.M = d.mat()
		} else {
			j.spec.C = d.mat()
			j.spec.A = d.mat()
			j.spec.B = d.mat()
		}
		res := j.spec.result()
		if d.err == nil && res == nil {
			d.err = errors.New("cluster: snapshot job without its result matrix")
		}
		if d.err != nil {
			return fmt.Errorf("cluster: snapshot job %d: %w", i, d.err)
		}
		j.q = res.Q
		j.nextSeq = int(d.u32())
		j.total = int(d.u32())
		j.done = int(d.u32())
		j.requeues = int(d.u32())
		j.stage = int(d.u32())
		j.stageLeft = int(d.u32())
		j.luBlocks = int(d.u32())
		j.recuts = int(d.u32())
		j.gridT = int(d.u32())
		nt := int(d.u32())
		for k := 0; k < nt; k++ {
			seq := int(d.u32())
			kk := int(d.u32())
			i0, j0 := int(d.u32()), int(d.u32())
			rows, cols := int(d.u32()), int(d.u32())
			steps := int(d.u32())
			ch := &sim.Chunk{
				ID: seq, I0: i0, J0: j0,
				Rows: rows, Cols: cols, Blocks: rows * cols,
				Steps: make([]sim.Step, steps),
			}
			for s := range ch.Steps {
				ch.Steps[s] = sim.Step{Blocks: rows + cols, Updates: int64(rows) * int64(cols)}
			}
			j.pending = append(j.pending, &Task{
				Job: j.id, Seq: seq, Kind: j.spec.Kind, Chunk: ch, Steps: steps, K: kk,
			})
		}
		if d.u8() == 1 {
			nr := int(d.u32())
			rects := make([][4]int, nr)
			for r := 0; r < nr; r++ {
				rects[r] = [4]int{int(d.u32()), int(d.u32()), int(d.u32()), int(d.u32())}
			}
			j.cutter = sim.NewCutterFromRects(res.BR, res.BC, rects)
		}
		if d.err != nil {
			return fmt.Errorf("cluster: snapshot job %d: %w", i, d.err)
		}
		// Committed seqs: every seq ever issued that is not pending again.
		// (Abandoned cutter seqs land here too — harmless, they can never
		// reappear in a later chunk record.)
		pendingSeqs := make(map[int]bool, len(j.pending))
		for _, t := range j.pending {
			pendingSeqs[t.Seq] = true
		}
		j.doneSeqs = make(map[int]bool)
		for s := 0; s < j.nextSeq; s++ {
			if !pendingSeqs[s] {
				j.doneSeqs[s] = true
			}
		}
		cl.jobs[j.id] = j
		cl.order = append(cl.order, j.id)
		if j.key != 0 {
			cl.keys[j.key] = j.id
		}
		if j.state == Running {
			cl.running++
		}
		if j.state == Done || j.state == Failed {
			close(j.doneCh)
		}
		rs.Jobs++
	}
	// Quarantined-worker table. Snapshots written before verification
	// existed end here; keep accepting them.
	if d.err != nil || len(d.buf) == 0 {
		return d.err
	}
	cl.quarantined = make(map[string]quarantineInfo)
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

// --- record encoding ------------------------------------------------------

type recEnc struct{ buf []byte }

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

func (e *recEnc) floats(v []float64) {
	for _, f := range v {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
	}
}

// matLen is the encoded length of m as mat writes it.
func matLen(m *matrix.Blocked) int {
	if m == nil {
		return 12
	}
	return 12 + 8*m.BR*m.BC*m.Q*m.Q
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
	for i := 0; i < m.BR; i++ {
		for j := 0; j < m.BC; j++ {
			e.floats(m.Block(i, j).Data)
		}
	}
}

type recDec struct {
	buf []byte
	err error
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
	b := d.take(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func (d *recDec) skipFloats(n int) { d.take(8 * n) }

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
	m := matrix.NewBlocked(br, bc, q)
	for i := 0; i < br; i++ {
		for j := 0; j < bc; j++ {
			d.readFloats(m.Block(i, j).Data)
		}
	}
	return m
}
