package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/store"
)

// logOp is one record a JobLog was handed: an append, or the snapshot
// of a compaction.
type logOp struct {
	rec      []byte
	snapshot bool
}

// opLog keeps a copy of every append and compaction through it, in
// order. gate, when set, runs before an append is recorded and written,
// so a test can hold one.
type opLog struct {
	JobLog
	ops  []logOp
	gate func(rec []byte)
}

func (l *opLog) Append(rec []byte) error {
	if l.gate != nil {
		l.gate(rec)
	}
	l.ops = append(l.ops, logOp{rec: bytes.Clone(rec)})
	return l.JobLog.Append(rec)
}

func (l *opLog) Compact(snap []byte) error {
	l.ops = append(l.ops, logOp{rec: bytes.Clone(snap), snapshot: true})
	return l.JobLog.Compact(snap)
}

// gatherOpLog is an opLog over a log that takes records as parts
// (gatherLog): it keeps each record joined and hands the parts on.
type gatherOpLog struct{ *opLog }

func (l gatherOpLog) AppendV(parts ...[]byte) error {
	l.ops = append(l.ops, logOp{rec: bytes.Join(parts, nil)})
	return l.JobLog.(gatherLog).AppendV(parts...)
}

func (l gatherOpLog) CompactV(parts ...[]byte) error {
	l.ops = append(l.ops, logOp{rec: bytes.Join(parts, nil), snapshot: true})
	return l.JobLog.(gatherLog).CompactV(parts...)
}

// noSync skips fsync: a crash point is cut out of the journal's bytes,
// not out of the disk's write-back.
var noSync = store.Options{Sync: func(*os.File) error { return nil }}

// writeOps replays ops into a fresh store under dir, as the master that
// appended them left it.
func writeOps(t *testing.T, dir string, ops []logOp) {
	t.Helper()
	jn, err := store.Open(dir, noSync)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	for _, op := range ops {
		if op.snapshot {
			err = jn.Compact(op.rec)
		} else {
			err = jn.Append(op.rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// chunkCommits decodes the chunk records among ops.
func chunkCommits(t *testing.T, ops []logOp) []ChunkCommit {
	t.Helper()
	var out []ChunkCommit
	for _, op := range ops {
		if op.snapshot || op.rec[0] != evChunk {
			continue
		}
		d := &recDec{buf: op.rec[1:]}
		c := d.chunkHead()
		if d.err != nil {
			t.Fatal(d.err)
		}
		out = append(out, c)
	}
	return out
}

// dispatch pulls s's next assignment with TryNext: the script knows
// when work is ready, so nothing dispatchable fails the test.
func dispatch(t *testing.T, s *Session) *engine.Assign {
	t.Helper()
	as, err := s.TryNext()
	if as == nil {
		t.Fatalf("TryNext(%s) = %v, want an assignment", s.w.id, err)
	}
	return as
}

// finishTask computes a dispatched assignment as the in-process worker
// does (engine.RunAssign over the session's sets, recycling into the
// cluster's pool) and commits its Result, and only its.
func finishTask(t *testing.T, s *Session, as *engine.Assign) {
	t.Helper()
	err := engine.RunAssign(as, s, s.cl.pool)
	if err == nil {
		err = s.Commit(&engine.Result{ID: as.ID, Blocks: as.Blocks}, engine.CommStats{})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// jobLocked runs f on job id under the cluster mutex.
func jobLocked[T any](cl *Cluster, id JobID, f func(*job) T) T {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return f(cl.jobs[id])
}

// sweepConfig is the configuration of both the scripted master and every
// master recovered from its journal: adaptive chunk sides and
// speculation.
func sweepConfig(log JobLog) Config {
	return Config{Log: log, Adaptive: AdaptiveConfig{
		Enabled: true, ChunkTarget: time.Second, SpeculationFactor: 1.5,
	}}
}

// TestRecoverCrashPointSweep crashes the master at every point of one
// scripted run and recovers. The script runs a matmul job, then an LU
// job, on a real store, through every path that leaves uncommitted work
// behind: an in-flight loss, a hand-back (no survivor can hold the lost
// copy), a speculative duplicate, and a CompactLog taken while chunks
// are in flight — one of them twice — once per job. Every append and
// compaction is recorded, no chunk or done record of a job may precede
// its accept record, and sweepCrashPoints recovers from every crash
// point.
func TestRecoverCrashPointSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	c, a, b, refC := blockedInputs(t, 16, 16, 16, 4, 34) // 4×4 blocks, T = 4
	const q, r = 4, 4
	orig := matrix.NewDense(q*r, q*r)
	lu.DiagonallyDominant(orig, 35)
	want := []*matrix.Blocked{matrix.Partition(refC, q), luReference(t, orig, q)}

	jn, err := store.Open(t.TempDir(), noSync)
	if err != nil {
		t.Fatal(err)
	}
	rec := &opLog{JobLog: NewStoreLog(jn)}
	cl, _ := manualCluster(sweepConfig(rec))
	mm, _, err := cl.SubmitJobKeyed(1, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	drained := func(id JobID) bool {
		return jobLocked(cl, id, func(j *job) bool { return j.cutter.Empty() && len(j.pending) == 0 })
	}
	finishJob := func(s *Session, id JobID) {
		for jobLocked(cl, id, func(j *job) JobState { return j.state }) != Done {
			finishTask(t, s, dispatch(t, s))
		}
	}

	// In-flight loss: the 2×2 chunk is requeued as a copy.
	lost := join(t, cl, "a", 64, 1)
	dispatch(t, lost)
	lost.Lost()
	// Hand-back: the survivor holds the Ledger of a 1×1 chunk (7
	// blocks), not the 2×2 copy's, so the copy's region goes back to the
	// cutter.
	small := join(t, cl, "s", 7, 1)
	finishTask(t, small, dispatch(t, small))
	if n := jobLocked(cl, mm, func(j *job) int { return len(j.pending) }); n != 0 {
		t.Fatalf("the lost 2x2 copy is still pending (%d copies), want it handed back", n)
	}
	finishTask(t, small, dispatch(t, small))
	small.Close(SessionReport{})
	// A slow worker takes the rest of the grid at µ = √(20/4) = 2, and a
	// fast idle worker duplicates one of its in-flight chunks.
	slow := join(t, cl, "b", 0, 16)
	slow.ObserveCompute(engine.AssignID{}, 20, int64(time.Second))
	var held []*engine.Assign
	for !drained(mm) {
		held = append(held, dispatch(t, slow))
	}
	if len(held) < 3 {
		t.Fatalf("the slow worker holds %d chunks, want at least 3", len(held))
	}
	fast := join(t, cl, "f", 0, 1)
	fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
	dup := dispatch(t, fast)
	if st := cl.ClusterStats(); st.Speculations != 1 || !slices.ContainsFunc(held, func(as *engine.Assign) bool { return as.ID.B == dup.ID.B }) {
		t.Fatalf("fast worker got seq %d after %d speculations, want a duplicate of an in-flight chunk",
			dup.ID.B, st.Speculations)
	}
	if err := cl.CompactLog(); err != nil {
		t.Fatal(err)
	}
	// The duplicate wins; the slow worker commits one more chunk and dies
	// with the rest in flight.
	finishTask(t, fast, dup)
	for _, as := range held {
		if as.ID.B != dup.ID.B {
			finishTask(t, slow, as)
			break
		}
	}
	slow.Lost()
	fresh := join(t, cl, "c", 0, 1)
	finishJob(fresh, mm)

	// The LU job, submitted once the product is done so that every
	// dispatch above sees one running job: two chunks in flight at a
	// compaction mid-stage, then a loss with one of them.
	luj, _, err := cl.SubmitJobKeyed(2, JobSpec{Kind: LU, M: matrix.Partition(orig.Clone(), q), Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	lw := join(t, cl, "l", 0, 2)
	_, l2 := dispatch(t, lw), dispatch(t, lw)
	if err := cl.CompactLog(); err != nil {
		t.Fatal(err)
	}
	finishTask(t, lw, l2)
	lw.Lost()
	finishJob(fresh, luj)

	st := cl.ClusterStats()
	if st.SpecWins != 1 || st.WorkersLost < 4 || st.Requeues < 4 {
		t.Fatalf("script stats %+v: want a won speculation and the losses", st)
	}
	for id, w := range want {
		res, err := cl.JobResult(JobID(id))
		if err != nil || !sameMatrix(res, w) {
			t.Fatalf("scripted job %d is not bit-exact (%v)", id, err)
		}
	}
	cl.Close()
	jn.Close()
	ops := rec.ops
	assertAcceptFirst(t, ops)
	sweepCrashPoints(t, rng, ops, want, mm)
}

// TestRecoverAcceptBesideFirstTaskSweep crashes the master at every
// point of a run whose first task is dispatched, computed and reported
// while its job's accept record is still being written: the commit
// waits for the record, so no chunk record precedes it, and the crash
// points before the record's fsync lose the task with the job. A fresh
// worker finishes the job, and sweepCrashPoints recovers from every
// crash point.
func TestRecoverAcceptBesideFirstTaskSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	c, a, b, refC := blockedInputs(t, 16, 16, 16, 4, 36) // 4×4 blocks, T = 4
	want := []*matrix.Blocked{matrix.Partition(refC, 4)}

	jn, err := store.Open(t.TempDir(), noSync)
	if err != nil {
		t.Fatal(err)
	}
	rec := &opLog{JobLog: NewStoreLog(jn)}
	cl, _ := manualCluster(sweepConfig(rec))
	// Hold the accept record's append while a worker takes a task,
	// computes it and reports it.
	entered, release := make(chan struct{}), make(chan struct{})
	rec.gate = func([]byte) {
		rec.gate = nil
		close(entered)
		<-release
	}
	type submitted struct {
		id  JobID
		err error
	}
	accepted := make(chan submitted, 1)
	go func() {
		id, _, err := cl.SubmitJobKeyed(1, JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
		accepted <- submitted{id, err}
	}()
	<-entered
	early := join(t, cl, "e", 0, 1)
	eas := dispatch(t, early)
	if err := engine.RunAssign(eas, early, cl.pool); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- early.Commit(&engine.Result{ID: eas.ID, Blocks: eas.Blocks}, engine.CommStats{}) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if waits := jobLocked(cl, 0, func(*job) int { return cl.acceptWaits }); waits > 0 {
			break
		}
		if len(committed) > 0 || time.Now().After(deadline) {
			t.Fatal("the commit did not wait for the accept record")
		}
	}
	close(release)
	sub := <-accepted
	if sub.err != nil {
		t.Fatal(sub.err)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	early.Close(SessionReport{})
	mm := sub.id
	fresh := join(t, cl, "c", 0, 1)
	for jobLocked(cl, mm, func(j *job) JobState { return j.state }) != Done {
		finishTask(t, fresh, dispatch(t, fresh))
	}
	res, err := cl.JobResult(mm)
	if err != nil || !sameMatrix(res, want[mm]) {
		t.Fatalf("scripted job is not bit-exact (%v)", err)
	}
	cl.Close()
	jn.Close()
	ops := rec.ops
	assertAcceptFirst(t, ops)
	if ops[0].snapshot || ops[0].rec[0] != evAccepted || ops[1].rec[0] != evChunk {
		t.Fatal("the early task's chunk record does not follow the accept record")
	}
	sweepCrashPoints(t, rng, ops, want, mm)
}

// sweepCrashPoints rebuilds the journal a master crashing while it
// wrote ops leaves — at every record boundary, at a torn tail inside
// every record and between a compaction's snapshot and its deletion of
// the old segments — recovers it into a fresh master and finishes it
// with a local worker: every job must end Done and bit-exact against
// want (indexed by job ID), and no block of a job's result (per LU
// stage) may be committed twice across the crash. Where the product mm
// (4×4 blocks of side 4) is partly committed, a chunk record over its
// whole grid — a region straddling committed and uncommitted blocks —
// must be refused.
func sweepCrashPoints(t *testing.T, rng *rand.Rand, ops []logOp, want []*matrix.Blocked, mm JobID) {
	t.Helper()
	const q = 4
	recoverAt := func(t *testing.T, done []logOp, build func(dir string)) (straddle bool) {
		dir := t.TempDir()
		build(dir)
		rjn, err := store.Open(dir, noSync)
		if err != nil {
			t.Fatal(err)
		}
		defer rjn.Close()
		rlog := &opLog{JobLog: NewStoreLog(rjn)}
		rc, _ := manualCluster(sweepConfig(rlog))
		defer rc.Close()
		if _, err := rc.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		accepted := 0
		for _, op := range done {
			if !op.snapshot && op.rec[0] == evAccepted {
				accepted++
			}
		}
		jobs := rc.Jobs()
		if len(jobs) != accepted {
			t.Fatalf("%d jobs recovered, %d accepted", len(jobs), accepted)
		}
		if len(jobs) > 0 {
			straddle = jobLocked(rc, mm, func(j *job) bool {
				return j.state == Running && j.done > 0 && !j.cutter.Empty()
			})
		}
		exited := make(chan error, 1)
		go func() { exited <- RunLocalWorker(rc, LocalWorkerConfig{ID: "r"}) }()
		for _, js := range jobs {
			if st := waitStatus(t, rc, js.ID); st.State != Done {
				t.Fatalf("job %d ended %v (%v)", js.ID, st.State, st.Err)
			}
			res, err := rc.JobResult(js.ID)
			if err != nil || !sameMatrix(res, want[js.ID]) {
				t.Fatalf("job %d is not bit-exact after recovery (%v)", js.ID, err)
			}
		}
		rc.Close()
		<-exited
		assertBlocksCommittedOnce(t, append(chunkCommits(t, done), chunkCommits(t, rlog.ops)...))
		return straddle
	}
	// The product's whole grid as one chunk record of zero tiles.
	zeros := make([][]float64, 16)
	for i := range zeros {
		zeros[i] = make([]float64, q*q)
	}
	whole := refChunkRecord(&Task{Job: mm, Seq: 1 << 20, Chunk: Chunk{Rows: 4, Cols: 4}}, zeros)

	for k := 0; k <= len(ops); k++ {
		var straddle bool
		t.Run(fmt.Sprintf("boundary%02d", k), func(t *testing.T) {
			straddle = recoverAt(t, ops[:k], func(dir string) { writeOps(t, dir, ops[:k]) })
		})
		if straddle {
			t.Run(fmt.Sprintf("straddle%02d", k), func(t *testing.T) {
				dir := t.TempDir()
				writeOps(t, dir, append(ops[:k:k], logOp{rec: whole}))
				rjn, err := store.Open(dir, noSync)
				if err != nil {
					t.Fatal(err)
				}
				defer rjn.Close()
				rc, _ := manualCluster(sweepConfig(NewStoreLog(rjn)))
				defer rc.Close()
				if _, err := rc.Recover(); err == nil {
					t.Fatal("Recover accepted a chunk record over committed and uncommitted blocks")
				}
			})
		}
		if k == len(ops) {
			break
		}
		// A crash inside record k's frame: an append's torn tail, or a
		// compaction's torn snapshot beside the old segments it had not
		// yet deleted; for a compaction also a crash between its two
		// steps, the snapshot whole and the old segments still there.
		torn := 1 + rng.Intn(len(ops[k].rec)+8) // of the 9+len(rec) frame bytes
		t.Run(fmt.Sprintf("torn%02d", k), func(t *testing.T) {
			recoverAt(t, ops[:k], func(dir string) { crashIn(t, dir, ops[:k+1], torn) })
		})
		if ops[k].snapshot {
			t.Run(fmt.Sprintf("stale%02d", k), func(t *testing.T) {
				recoverAt(t, ops[:k+1], func(dir string) { crashIn(t, dir, ops[:k+1], 0) })
			})
		}
	}
}

// assertAcceptFirst fails the test if a chunk or done record among ops
// precedes its job's accept record.
func assertAcceptFirst(t *testing.T, ops []logOp) {
	t.Helper()
	seen := make(map[JobID]bool)
	for n, op := range ops {
		if op.snapshot {
			continue
		}
		id := JobID(binary.LittleEndian.Uint32(op.rec[1:]))
		switch op.rec[0] {
		case evAccepted:
			seen[id] = true
		case evChunk, evDone:
			if !seen[id] {
				t.Fatalf("record %d (type %d) of job %d precedes its accept record", n, op.rec[0], id)
			}
		}
	}
}

// crashIn writes ops into a fresh store under dir as a master that
// crashed while writing the last of them left it: the segments a last
// compaction would have deleted are still there, and the last torn
// bytes of the newest segment — of the last record's frame — are not.
func crashIn(t *testing.T, dir string, ops []logOp, torn int) {
	t.Helper()
	writeOps(t, dir, ops[:len(ops)-1])
	before := readSegments(t, dir)
	writeOps(t, dir, ops[len(ops)-1:])
	after := readSegments(t, dir)
	for name, b := range before {
		if _, ok := after[name]; !ok {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if torn > 0 {
		names := segmentNames(t, dir)
		last := filepath.Join(dir, names[len(names)-1])
		if err := os.Truncate(last, int64(len(after[names[len(names)-1]])-torn)); err != nil {
			t.Fatal(err)
		}
	}
}

// segmentNames lists dir's files in name order — the store's segments
// in replay order.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// readSegments reads every file of dir.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range segmentNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}
