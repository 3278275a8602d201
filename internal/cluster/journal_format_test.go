package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/store"
)

// The journal's record encoder as the format was first written, kept as
// the reference the bulk codec is pinned against: integers as recEnc
// writes them, every float one binary.LittleEndian.AppendUint64, every
// decoded float one Uint64. A record the cluster writes must be these
// bytes, and these bytes must recover through the cluster's decoder.

type refEnc struct{ recEnc }

func (e *refEnc) floats(v []float64) {
	for _, f := range v {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
	}
}

func (e *refEnc) mat(m *matrix.Blocked) {
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

// refReadMat decodes a matrix written by mat, one element at a time.
func refReadMat(d *recDec) *matrix.Blocked {
	br, bc, q := int(d.u32()), int(d.u32()), int(d.u32())
	if d.err != nil || (br == 0 && bc == 0 && q == 0) {
		return nil
	}
	m := matrix.NewBlocked(br, bc, q)
	for _, blk := range m.Blocks {
		b := d.take(8 * len(blk.Data))
		if b == nil {
			return nil
		}
		for i := range blk.Data {
			blk.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return m
}

func refAccepted(id JobID, key uint64, spec JobSpec) []byte {
	e := &refEnc{}
	e.u8(evAccepted)
	e.u32(uint32(id))
	e.u64(key)
	e.u8(byte(spec.Kind))
	e.u8(0)
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

// refChunkRecord is task t's chunk record with the tile values it
// committed, row-major.
func refChunkRecord(t *Task, tiles [][]float64) []byte {
	e := &refEnc{}
	e.u8(evChunk)
	ch := t.Chunk
	for _, v := range []int{int(t.Job), t.Seq, t.K, ch.I0, ch.J0, ch.Rows, ch.Cols} {
		e.u32(uint32(v))
	}
	for _, tile := range tiles {
		e.floats(tile)
	}
	return e.buf
}

func refDone(id JobID) []byte {
	e := &refEnc{}
	e.u8(evDone)
	e.u32(uint32(id))
	e.u8(byte(Done))
	e.u8(0)
	e.str("")
	return e.buf
}

// refSnapshot is cl's snapshot record in the v1 layout; the caller
// holds cl.mu.
func refSnapshot(cl *Cluster) []byte {
	e := &refEnc{}
	e.u32(snapshotV1)
	refSnapshotBody(e, cl, func(j *job) {
		for _, v := range []int{j.nextSeq, j.done, j.requeues, j.stage} {
			e.u32(uint32(v))
		}
		rects := j.cutter.Rects()
		seen := make(map[int]bool)
		for _, t := range uncommittedTasks(cl, j) {
			if !seen[t.Seq] {
				seen[t.Seq] = true
				rects = append(rects, [4]int{t.Chunk.I0, t.Chunk.J0, t.Chunk.Rows, t.Chunk.Cols})
			}
		}
		e.u32(uint32(len(rects)))
		for _, r := range rects {
			for _, v := range r {
				e.u32(uint32(v))
			}
		}
	})
	return e.buf
}

// refSnapshotV0 is cl's snapshot record in the v0 layout, written
// before snapshots held free lists: nine counter slots (three of them
// unused, and the LU block order), the task list — pending, then in
// flight and dirty per live worker, a speculative duplicate listed
// twice — and the cutter's free list.
func refSnapshotV0(cl *Cluster) []byte {
	e := &refEnc{}
	refSnapshotBody(e, cl, func(j *job) {
		luBlocks := 0
		if j.spec.Kind == LU {
			luBlocks = j.spec.M.BR
		}
		for _, v := range []int{j.nextSeq, j.total, j.done, j.requeues, j.stage, 0, luBlocks, 0, 0} {
			e.u32(uint32(v))
		}
		tasks := uncommittedTasks(cl, j)
		e.u32(uint32(len(tasks)))
		for _, t := range tasks {
			for _, v := range []int{t.Seq, t.K, t.Chunk.I0, t.Chunk.J0, t.Chunk.Rows, t.Chunk.Cols, t.Steps} {
				e.u32(uint32(v))
			}
		}
		e.u8(1)
		rects := j.cutter.Rects()
		e.u32(uint32(len(rects)))
		for _, r := range rects {
			for _, v := range r {
				e.u32(uint32(v))
			}
		}
	})
	return e.buf
}

// uncommittedTasks lists j's tasks cut but not committed — pending, in
// flight or dirty on a live worker — by seq (a seq in flight twice is
// listed twice).
func uncommittedTasks(cl *Cluster, j *job) []*Task {
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
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].Seq < tasks[b].Seq })
	return tasks
}

// refSnapshotBody writes what both snapshot layouts share: the next job
// id and, per job whose result is held, its head and matrices, then
// tail(j); then the quarantined-worker table.
func refSnapshotBody(e *refEnc, cl *Cluster, tail func(*job)) {
	var kept []*job
	for _, id := range cl.order {
		if j := cl.jobs[id]; j.spec.result() != nil {
			kept = append(kept, j)
		}
	}
	e.u32(uint32(cl.nextID))
	e.u32(uint32(len(kept)))
	for _, j := range kept {
		e.u32(uint32(j.id))
		e.u64(j.key)
		e.u8(byte(j.spec.Kind))
		e.u8(byte(j.state))
		quarantined, msg := byte(0), ""
		if j.quarantined {
			quarantined = 1
		}
		if j.err != nil {
			msg = j.err.Error()
		}
		e.u8(quarantined)
		e.u32(uint32(j.spec.Mu))
		e.str(msg)
		if j.spec.Kind == LU {
			e.mat(j.spec.M)
		} else {
			e.mat(j.spec.C)
			e.mat(j.spec.A)
			e.mat(j.spec.B)
		}
		tail(j)
	}
	qids := make([]string, 0, len(cl.quarantined))
	for id := range cl.quarantined {
		qids = append(qids, id)
	}
	sort.Strings(qids)
	e.u32(uint32(len(qids)))
	for _, id := range qids {
		e.str(id)
		e.u32(uint32(cl.quarantined[id].strikes))
		e.str(cl.quarantined[id].reason)
	}
}

// randBlocked is a random br×bc-block matrix of q×q blocks; every bit
// pattern is fair game, NaN payloads and subnormals included.
func randBlocked(rng *rand.Rand, br, bc, q int) *matrix.Blocked {
	m := matrix.NewBlocked(br, bc, q)
	for _, blk := range m.Blocks {
		for i := range blk.Data {
			blk.Data[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return m
}

func sameMatrix(a, b *matrix.Blocked) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.BR != b.BR || a.BC != b.BC || a.Q != b.Q {
		return false
	}
	for i := range a.Blocks {
		for k, v := range a.Blocks[i].Data {
			if math.Float64bits(v) != math.Float64bits(b.Blocks[i].Data[k]) {
				return false
			}
		}
	}
	return true
}

// TestAcceptedRecordMatchesReference: over random matmul and LU specs,
// released operands among them (nil, written as 0×0 with q = 0), the
// accept record is the reference's bytes, and each decoder reads the
// other's matrices back bit for bit.
func TestAcceptedRecordMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		q := 1 + rng.Intn(5)
		r, k, s := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		spec := JobSpec{Kind: MatMul, Mu: 1 + rng.Intn(3)}
		if rng.Intn(3) == 0 {
			spec.Kind = LU
			spec.M = randBlocked(rng, r, r, q)
		} else {
			spec.C = randBlocked(rng, r, s, q)
			if rng.Intn(3) > 0 {
				spec.A, spec.B = randBlocked(rng, r, k, q), randBlocked(rng, k, s, q)
			}
		}
		if rng.Intn(5) == 0 {
			spec.M, spec.C = nil, nil
		}
		id, key := JobID(rng.Uint32()), rng.Uint64()
		want := refAccepted(id, key, spec)
		rng.Intn(9) // the stale length of a since-deleted reused buffer: the specs stay those of earlier runs
		got := bytes.Join(encodeAccepted(id, key, spec), nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: %v accept record differs from the per-element reference", iter, spec.Kind)
		}
		mats := []*matrix.Blocked{spec.C, spec.A, spec.B}
		if spec.Kind == LU {
			mats = []*matrix.Blocked{spec.M}
		}
		// The cluster's decoder reads the reference's bytes, the
		// reference's decoder the cluster's (past the 19-byte header).
		ofRef, ofNew := &recDec{buf: want[19:]}, &recDec{buf: got[19:]}
		for n, m := range mats {
			if !sameMatrix(ofRef.mat(), m) || !sameMatrix(refReadMat(ofNew), m) {
				t.Fatalf("iter %d: operand %d does not decode bit-exact", iter, n)
			}
		}
		if ofRef.err != nil || ofNew.err != nil || len(ofRef.buf) != 0 || len(ofNew.buf) != 0 {
			t.Fatalf("iter %d: decoders ended with %v/%v and %d/%d bytes left",
				iter, ofRef.err, ofNew.err, len(ofRef.buf), len(ofNew.buf))
		}
	}
}

// TestJournalMatchesReference runs random matmul and LU jobs on a
// journaled cluster and pins the journal against the reference:
// replaying it yields exactly the fresh reference encodes of the
// records, in order, a journal of the reference's records recovers the
// same job table, and the snapshot is the reference's bytes and
// recovers it too. Each seed runs twice, through a log that takes
// records as parts and through one handed them joined.
func TestJournalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, gather := range []bool{true, false} {
			journalMatchesReference(t, seed, gather)
		}
	}
}

// journalMatchesReference is one seed's run of TestJournalMatchesReference.
func journalMatchesReference(t *testing.T, seed int64, gather bool) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	jn, log := openLog(t, dir)
	clog := &opLog{JobLog: log}
	var cfgLog JobLog = clog
	if gather {
		cfgLog = gatherOpLog{clog}
	}
	cl, _ := manualCluster(Config{Log: cfgLog})
	var want [][]byte
	// tiles gives a task's final tile values, row-major.
	tiles := make(map[JobID]func(*Task) [][]float64)
	for n := 0; n < 2+rng.Intn(3); n++ {
		q := 1 + rng.Intn(4)
		spec := JobSpec{Kind: MatMul, Mu: 1 + rng.Intn(3)}
		var tilesOf func(*Task) [][]float64
		if rng.Intn(2) == 0 {
			r := 2 + rng.Intn(2)
			orig := matrix.NewDense(r*q, r*q)
			lu.DiagonallyDominant(orig, seed*10+int64(n))
			spec.Kind, spec.M = LU, matrix.Partition(orig, q)
			tilesOf = func(t *Task) [][]float64 {
				var out [][]float64
				for i := 0; i < t.Chunk.Rows; i++ {
					for j := 0; j < t.Chunk.Cols; j++ {
						out = append(out, trailingTileValue(spec.M, t.Chunk.I0+i, t.Chunk.J0+j, t.K))
					}
				}
				return out
			}
		} else {
			r, k, s := 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)
			c, a, b, ref := blockedInputs(t, r*q, k*q, s*q, q, seed*10+int64(n))
			spec.C, spec.A, spec.B = c, a, b
			refB := matrix.Partition(ref, q)
			tilesOf = func(t *Task) [][]float64 { return refChunk(t, refB) }
		}
		key := uint64(rng.Intn(2)) * (100 + uint64(n))
		want = append(want, refAccepted(JobID(n), key, spec))
		id, _, err := cl.SubmitJobKeyed(key, spec)
		if err != nil || id != JobID(n) {
			t.Fatalf("seed %d: submit = %d, %v", seed, id, err)
		}
		tiles[id] = tilesOf
	}
	w := join(t, cl, "w", 0, 1)
	held := pullTask(t, w)
	for steps := rng.Intn(20); steps > 0; steps-- {
		vals := tiles[held.Job](held)
		if err := complete(w, held, vals); err != nil {
			t.Fatal(err)
		}
		want = append(want, refChunkRecord(held, vals))
		if st, _ := cl.JobStatus(held.Job); st.State == Done {
			want = append(want, refDone(held.Job))
			if rng.Intn(2) == 0 {
				cl.ForgetResult(held.Job) // an unkeyed job then leaves the snapshot
			}
		}
		if allTerminal(cl) {
			held = nil
			break
		}
		held = pullTask(t, w)
	}

	if len(clog.ops) != len(want) {
		t.Fatalf("seed %d: %d records appended, want %d", seed, len(clog.ops), len(want))
	}
	var replayed [][]byte
	if _, err := store.ReplayDir(dir, func(rec []byte, _ bool) error {
		replayed = append(replayed, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(clog.ops[i].rec, want[i]) || !bytes.Equal(replayed[i], want[i]) {
			t.Fatalf("seed %d: record %d (type %d) is not the reference's bytes", seed, i, want[i][0])
		}
	}

	// A journal the reference wrote recovers what the cluster holds.
	refDir := t.TempDir()
	rjn, rlog := openLog(t, refDir)
	for _, rec := range want {
		if err := rjn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	assertRecovers(t, rlog, cl, false)
	rjn.Close()

	// The snapshot is the reference's bytes and recovers the same.
	if err := cl.CompactLog(); err != nil {
		t.Fatal(err)
	}
	cl.mu.Lock()
	wantSnap := refSnapshot(cl)
	cl.mu.Unlock()
	var snaps [][]byte
	if _, err := store.ReplayDir(dir, func(rec []byte, snap bool) error {
		if snap {
			snaps = append(snaps, bytes.Clone(rec))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || !bytes.Equal(snaps[0], wantSnap) {
		t.Fatalf("seed %d: the snapshot is not the reference's bytes", seed)
	}
	// So do the v0 layout's bytes of the same table.
	cl.mu.Lock()
	v0Snap := refSnapshotV0(cl)
	cl.mu.Unlock()
	for _, snap := range [][]byte{wantSnap, v0Snap} {
		snapDir := t.TempDir()
		sjn, slog := openLog(t, snapDir)
		if err := sjn.Compact(snap); err != nil {
			t.Fatal(err)
		}
		assertRecovers(t, slog, cl, true)
		sjn.Close()
	}
	cl.Close()
	jn.Close()
}

// assertRecovers recovers a fresh cluster from log and checks that every
// job of live it should hold — every job, or from a snapshot those whose
// result is still held — has live's state, commit count and result
// bits. A task held in flight is uncommitted in both, and a terminal
// unkeyed job's result is released by the restart (nobody can ask for
// it).
func assertRecovers(t *testing.T, log JobLog, live *Cluster, fromSnapshot bool) {
	t.Helper()
	rec, _ := manualCluster(Config{Log: log})
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ids := append([]JobID(nil), live.order...)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		lj, rj := live.jobs[id], rec.jobs[id]
		if fromSnapshot && lj.spec.result() == nil {
			if rj != nil {
				t.Fatalf("job %d: a released result came back from the snapshot", id)
			}
			continue
		}
		if rj == nil {
			t.Fatalf("job %d did not recover", id)
		}
		if rj.state != lj.state || rj.done != lj.done {
			t.Fatalf("job %d recovered %v with %d chunks, live %v with %d", id, rj.state, rj.done, lj.state, lj.done)
		}
		if rj.key == 0 && rj.state == Done {
			continue
		}
		if lj.spec.result() != nil && !sameMatrix(rj.spec.result(), lj.spec.result()) {
			t.Fatalf("job %d: the recovered result differs from the live one", id)
		}
	}
}
