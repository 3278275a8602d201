package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// adaptiveCluster builds a manual-clock cluster with adaptive chunk
// shaping on and a 1-second chunk target (so µ = √(speed/T) with the
// tests' profiles).
func adaptiveCluster(extra AdaptiveConfig) (*Cluster, *ManualClock) {
	extra.Enabled = true
	if extra.ChunkTarget == 0 {
		extra.ChunkTarget = time.Second
	}
	return manualCluster(Config{Adaptive: extra})
}

// wire is a session report of connection bytes over one second.
func wire(out, in int64) SessionReport {
	return SessionReport{WireOut: out, WireIn: in, Elapsed: time.Second}
}

// TestReconnectWireAccounting is the scheduler half of the wire-byte
// accounting: bytes reported once per session accumulate exactly once
// in the lifetime totals across a reconnect, session counters restart
// cold, and a replaced incarnation's late teardown report cannot
// pollute the live session's counters.
func TestReconnectWireAccounting(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()

	join(t, cl, "w", 64, 1).Close(wire(1000, 500))
	wi := snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1000 || wi.WireBytesIn != 500 {
		t.Fatalf("lifetime wire = %d/%d, want 1000/500", wi.WireBytesOut, wi.WireBytesIn)
	}
	if wi.SessWireBytesOut != 1000 || wi.SessWireBytesIn != 500 {
		t.Fatalf("session wire = %d/%d, want 1000/500", wi.SessWireBytesOut, wi.SessWireBytesIn)
	}
	if wi.Profile.BytesPerSec != 1500 {
		t.Fatalf("profile bandwidth = %v B/s, want 1500", wi.Profile.BytesPerSec)
	}

	// Reconnect, and reconnect again while the second session is still
	// tearing down: lifetime carries, session resets.
	stale := join(t, cl, "w", 64, 1)
	live := join(t, cl, "w", 64, 1)
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1000 || wi.WireBytesIn != 500 {
		t.Fatalf("reconnect reset lifetime wire: %d/%d", wi.WireBytesOut, wi.WireBytesIn)
	}
	if wi.SessWireBytesOut != 0 || wi.SessWireBytesIn != 0 {
		t.Fatalf("reconnect kept session wire: %d/%d", wi.SessWireBytesOut, wi.SessWireBytesIn)
	}

	// The replaced incarnation's teardown report drains late: its bytes
	// are real (lifetime counts them once) but must not land on the new
	// incarnation's cold session counters.
	stale.Close(wire(200, 100))
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1200 || wi.WireBytesIn != 600 {
		t.Fatalf("lifetime after stale report = %d/%d, want 1200/600 (counted once)",
			wi.WireBytesOut, wi.WireBytesIn)
	}
	if wi.SessWireBytesOut != 0 || wi.SessWireBytesIn != 0 {
		t.Fatalf("stale report polluted live session: %d/%d",
			wi.SessWireBytesOut, wi.SessWireBytesIn)
	}

	// The live incarnation's report lands in both scopes.
	live.Close(wire(40, 10))
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1240 || wi.WireBytesIn != 610 {
		t.Fatalf("lifetime after live report = %d/%d, want 1240/610",
			wi.WireBytesOut, wi.WireBytesIn)
	}
	if wi.SessWireBytesOut != 40 || wi.SessWireBytesIn != 10 {
		t.Fatalf("session after live report = %d/%d, want 40/10",
			wi.SessWireBytesOut, wi.SessWireBytesIn)
	}
}

// TestAdaptiveMuShaping pins the cluster's use of the µ rule
// (sim.AdaptiveConfig.ChunkSide): unprofiled workers fall back to the
// job's µ, profiled workers get chunks sized to their measured speed,
// and advertised memory bounds the result.
func TestAdaptiveMuShaping(t *testing.T) {
	// 12×12-block C grid, T = 4 update steps, q = 2; job µ = 2.
	submit := func(t *testing.T, cl *Cluster) {
		t.Helper()
		c, a, b, _ := blockedInputs(t, 24, 8, 24, 2, 31)
		if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		mem     int
		updates int64 // profile: updates in 1s; 0 = unprofiled
		wantR   int
		wantC   int
	}{
		{name: "unprofiled falls back to job µ", mem: 64, wantR: 2, wantC: 2},
		{name: "fast worker gets a wide chunk", mem: 100, updates: 100, wantR: 5, wantC: 5},
		{name: "slow worker gets a unit chunk", mem: 64, updates: 4, wantR: 1, wantC: 1},
		{name: "memory clamps a fast worker", mem: 8, updates: 100, wantR: 2, wantC: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, _ := adaptiveCluster(AdaptiveConfig{})
			defer cl.Close()
			submit(t, cl)
			w := join(t, cl, "w", tc.mem, 1)
			if tc.updates > 0 {
				// µ = √(updates/s · 1s / T=4).
				w.ObserveCompute(engine.AssignID{}, tc.updates, int64(time.Second))
				if wi := snapshotWorker(t, cl, "w"); wi.Profile.ComputeSamples != 1 {
					t.Fatalf("profile not exposed in snapshot: %+v", wi.Profile)
				}
			}
			tk := pullTask(t, w)
			if tk.Chunk.Rows != tc.wantR || tk.Chunk.Cols != tc.wantC {
				t.Fatalf("chunk %dx%d at (%d,%d), want %dx%d",
					tk.Chunk.Rows, tk.Chunk.Cols, tk.Chunk.I0, tk.Chunk.J0, tc.wantR, tc.wantC)
			}
		})
	}
}

// TestSpeculationWinnerRevokesLoser pins the straggler path end to end
// at the scheduler level: a profiled-slow holder keeps the only chunk,
// a profiled-fast idle worker receives a speculative duplicate (same
// seq, fresh attempt), the first completion wins, and the loser's late
// completion is refused as stale — the dirty-value guarantee that the
// committed result is written exactly once. The job's operands outlive
// the win: the loser streams sets until it reports, and only then are
// they released.
func TestSpeculationWinnerRevokesLoser(t *testing.T) {
	cl, _ := adaptiveCluster(AdaptiveConfig{SpeculationFactor: 1.5})
	defer cl.Close()
	// 2×2-block grid, T = 2: one chunk of 8 block-updates for a worker
	// whose profile allows µ ≥ 2.
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 32)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow := join(t, cl, "slow", 64, 1)
	slow.ObserveCompute(engine.AssignID{}, 40, int64(time.Second)) // 40 upd/s → µ=√(40/2)=4
	orig := pullTask(t, slow)
	if orig.Chunk.Rows != 2 || orig.Chunk.Cols != 2 {
		t.Fatalf("holder chunk %dx%d, want the whole 2x2 grid", orig.Chunk.Rows, orig.Chunk.Cols)
	}

	// A fast idle worker shows up: nothing left to cut, so the scheduler
	// speculates the straggler's chunk onto it: 8/40 = 200ms left on the
	// holder vs 8/8000 = 1ms on the idle worker — far beyond 1.5×.
	fast := join(t, cl, "fast", 64, 1)
	fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
	dup := pullTask(t, fast)
	if dup.Job != orig.Job || dup.Seq != orig.Seq {
		t.Fatalf("fast worker got task %d/%d, want a duplicate of %d/%d",
			dup.Job, dup.Seq, orig.Job, orig.Seq)
	}
	if dup.Attempt == orig.Attempt {
		t.Fatal("duplicate reused the original attempt number")
	}
	if st := cl.ClusterStats(); st.Speculations != 1 {
		t.Fatalf("speculations = %d, want 1", st.Speculations)
	}

	// The fast copy finishes first and wins.
	if err := complete(fast, dup, refChunk(dup, c)); err != nil {
		t.Fatalf("winner's completion rejected: %v", err)
	}
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if st := cl.ClusterStats(); st.SpecWins != 1 {
		t.Fatalf("spec wins = %d, want 1", st.SpecWins)
	}

	// The straggler is still mid-stream on its revoked copy: the finished
	// job keeps every matrix until it lets go.
	if got := retained(t, cl, id); got != 3 {
		t.Fatalf("finished job retains %d matrices while the loser streams, want 3", got)
	}
	if _, err := slow.Set(orig.key(), 1); err != nil {
		t.Fatalf("loser's set request after the job finished: %v", err)
	}

	// The straggler finally reports: its copy was revoked when the winner
	// committed, so the late completion must be refused as stale.
	if err := complete(slow, orig, refChunk(orig, c)); !errors.Is(err, ErrStaleTask) {
		t.Fatalf("loser's completion = %v, want ErrStaleTask", err)
	}
	if got := retained(t, cl, id); got != 1 {
		t.Fatalf("job retains %d matrices after the loser let go, want the result only", got)
	}
	if err := setOf(cl, orig, 1); !errors.Is(err, ErrStaleJob) {
		t.Fatalf("set request on the released job = %v, want ErrStaleJob", err)
	}
}

// TestSpeculationSkipsNearDoneHolder pins the trigger's guard rails: no
// duplicate is launched when the holder is about to finish (negative
// remaining time) even though the asker is much faster.
func TestSpeculationSkipsNearDoneHolder(t *testing.T) {
	cl, clk := adaptiveCluster(AdaptiveConfig{SpeculationFactor: 1.5})
	defer cl.Close()
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 33)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
		t.Fatal(err)
	}
	slow := join(t, cl, "slow", 64, 1)
	slow.ObserveCompute(engine.AssignID{}, 40, int64(time.Second))
	if tk := pullTask(t, slow); tk == nil {
		t.Fatal("no task")
	}
	// The holder has been at it past its own ETA: remaining ≤ 0, a
	// duplicate can only waste work.
	clk.Advance(time.Second)
	fast := join(t, cl, "fast", 64, 1)
	fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
	got := make(chan *Task, 1)
	go func() {
		tk, err := next(fast)
		if err == nil {
			got <- tk
		}
		close(got)
	}()
	waitParked(t, cl, 1)
	select {
	case tk := <-got:
		t.Fatalf("speculated %v onto fast worker despite a near-done holder", tk)
	default:
	}
	if st := cl.ClusterStats(); st.Speculations != 0 {
		t.Fatalf("speculations = %d, want 0", st.Speculations)
	}
}

// TestAdaptiveRecutOnLoss pins the loss path of cutter-backed jobs: a
// lost worker's chunk region returns to the cutter and is re-carved —
// possibly at a different µ for a different worker — and the job still
// finishes bit-exact.
func TestAdaptiveRecutOnLoss(t *testing.T) {
	cl, _ := adaptiveCluster(AdaptiveConfig{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 34)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, cl, "w1", 64, 1)
	if tk := pullTask(t, w1); tk.Chunk.Rows != 2 || tk.Chunk.Cols != 2 {
		t.Fatalf("unprofiled chunk %dx%d, want job µ=2", tk.Chunk.Rows, tk.Chunk.Cols)
	}
	w1.Lost() // region goes back to the cutter
	if st := cl.ClusterStats(); st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Requeues)
	}
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 64})
	if st := waitStatus(t, cl, id); st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
}

// TestAdaptiveJobBitExact runs a whole adaptive job through real local
// workers: profiles form from live timings, chunks are carved per
// worker, and the assembled result still matches the naive reference
// exactly (the adaptation layer must never touch numerics). Memory for
// a 4×4 chunk and its staging set, no more, keeps a fast worker from
// taking the whole 6×6 grid in one chunk.
func TestAdaptiveJobBitExact(t *testing.T) {
	cl, _ := adaptiveCluster(AdaptiveConfig{SpeculationFactor: 2})
	defer cl.Close()
	for _, id := range []string{"w1", "w2", "w3"} {
		go RunLocalWorker(cl, LocalWorkerConfig{ID: id, Mem: core.ChunkFootprint(4, 4, 1)})
	}
	c, a, b, ref := blockedInputs(t, 24, 16, 24, 4, 35)
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if d := c.Assemble().MaxDiff(ref); d > 1e-9 {
		t.Fatalf("max |C - ref| = %g", d)
	}
	if st.TasksDone != st.TasksTotal || st.TasksTotal == 0 {
		t.Fatalf("tasks %d/%d", st.TasksDone, st.TasksTotal)
	}
}
