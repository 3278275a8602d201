package cluster

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
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
// in the lifetime totals across a reconnect, a replaced incarnation's
// late teardown report included.
func TestReconnectWireAccounting(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()

	join(t, cl, "w", 64, 1).Close(wire(1000, 500))
	wi := snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1000 || wi.WireBytesIn != 500 {
		t.Fatalf("lifetime wire = %d/%d, want 1000/500", wi.WireBytesOut, wi.WireBytesIn)
	}
	if wi.Profile.BytesPerSec != 1500 {
		t.Fatalf("profile bandwidth = %v B/s, want 1500", wi.Profile.BytesPerSec)
	}

	// Reconnect, and reconnect again while the second session is still
	// tearing down: lifetime carries.
	stale := join(t, cl, "w", 64, 1)
	live := join(t, cl, "w", 64, 1)
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1000 || wi.WireBytesIn != 500 {
		t.Fatalf("reconnect reset lifetime wire: %d/%d", wi.WireBytesOut, wi.WireBytesIn)
	}

	// The replaced incarnation's teardown report drains late: its bytes
	// are real, and lifetime counts them once.
	stale.Close(wire(200, 100))
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1200 || wi.WireBytesIn != 600 {
		t.Fatalf("lifetime after stale report = %d/%d, want 1200/600 (counted once)",
			wi.WireBytesOut, wi.WireBytesIn)
	}

	// The live incarnation's report lands too.
	live.Close(wire(40, 10))
	wi = snapshotWorker(t, cl, "w")
	if wi.WireBytesOut != 1240 || wi.WireBytesIn != 610 {
		t.Fatalf("lifetime after live report = %d/%d, want 1240/610",
			wi.WireBytesOut, wi.WireBytesIn)
	}
}

// TestAdaptiveMuShaping pins the cluster's use of the µ rule
// (AdaptiveConfig.ChunkSide): unprofiled workers fall back to the
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
// completion is refused as stale — the guarantee that the committed
// result is written exactly once. The job's operands outlive
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
	if err := setOf(cl, orig, 1); err == nil {
		t.Fatal("set request on the released job succeeded, want an error")
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

// TestAdaptiveRecutOnLoss pins the loss path of a chunk sized for a
// worker that is gone: the lost copy is requeued, and once no live
// worker's memory can hold it, its region returns to the cutter and is
// re-carved at the µ the survivor asks for — the job still finishes
// bit-exact.
func TestAdaptiveRecutOnLoss(t *testing.T) {
	cl, _ := adaptiveCluster(AdaptiveConfig{})
	defer cl.Close()
	c, a, b, ref := blockedInputs(t, 16, 16, 16, 4, 34) // 4×4 blocks, T = 4
	id, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	w1 := join(t, cl, "w1", 64, 1)
	w1.ObserveCompute(engine.AssignID{}, 100, int64(time.Second)) // µ = √(100/4) = 5
	if tk := pullTask(t, w1); tk.Chunk.Rows != 4 || tk.Chunk.Cols != 4 {
		t.Fatalf("fast worker's chunk %dx%d, want the whole 4x4 grid", tk.Chunk.Rows, tk.Chunk.Cols)
	}
	w1.Lost() // the 4x4 copy is requeued
	if st := cl.ClusterStats(); st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", st.Requeues)
	}
	// 8 blocks hold a 2x2 chunk and its staging set, not the 4x4 copy.
	go RunLocalWorker(cl, LocalWorkerConfig{ID: "w2", Mem: 8})
	st := waitStatus(t, cl, id)
	if st.State != Done {
		t.Fatalf("job state = %v (err %v), want done", st.State, st.Err)
	}
	if st.TasksTotal != 4 || st.TasksDone != 4 {
		t.Fatalf("tasks %d/%d, want the grid re-cut into four 2x2 chunks", st.TasksDone, st.TasksTotal)
	}
	if !c.Assemble().Equal(ref, 0) {
		t.Fatal("re-cut product not bit-exact")
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

func speed(updatesPerSec float64) stats.Profile {
	return stats.Profile{UpdatesPerSec: updatesPerSec}
}

// TestChunkSide pins the µ rule the cluster calls: the job's µ while off or unprofiled, √(speed·target/T)
// once enabled and profiled, clamped to what the advertised memory holds
// for the chunk plus one staging set (µ² + 2µ ≤ mem), and 0 when not
// even 1×1 fits.
func TestChunkSide(t *testing.T) {
	a := AdaptiveConfig{Enabled: true, ChunkTarget: time.Second}
	cases := []struct {
		name      string
		cfg       AdaptiveConfig
		p         stats.Profile
		t, jobMu  int
		mem, want int
	}{
		{name: "unprofiled gets the job µ", cfg: a, t: 4, jobMu: 3, mem: 64, want: 3},
		{name: "unprofiled job µ is memory-clamped", cfg: a, t: 4, jobMu: 9, mem: 24, want: 4},
		{name: "off ignores the profile", cfg: AdaptiveConfig{ChunkTarget: time.Second}, p: speed(100), t: 4, jobMu: 2, mem: 100, want: 2},
		{name: "off job µ is memory-clamped", p: speed(100), t: 4, jobMu: 8, mem: 10, want: 2},
		{name: "sqrt rule", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 100, want: 5},
		{name: "sqrt rule truncates", cfg: a, p: speed(99), t: 4, jobMu: 2, mem: 100, want: 4},
		{name: "slow worker gets at least 1", cfg: a, p: speed(1), t: 4, jobMu: 2, mem: 100, want: 1},
		{name: "default target is 250ms", cfg: AdaptiveConfig{Enabled: true}, p: speed(400), t: 4, jobMu: 2, want: 5},
		{name: "memory clamps a fast worker", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 8, want: 2},
		{name: "1x1 fits exactly", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 3, want: 1},
		{name: "1x1 does not fit", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 2, want: 0},
		{name: "memory 0 is unconstrained", cfg: a, p: speed(1e6), t: 4, jobMu: 2, want: 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.ChunkSide(tc.p, tc.t, tc.jobMu, tc.mem); got != tc.want {
				t.Fatalf("ChunkSide = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStragglerGain pins the speculation trigger: the holder's remaining
// time must exceed factor × the idle worker's full ETA, the transfer
// term counts only once the idle worker's bandwidth is known, and a
// holder at or past its own ETA never fires.
func TestStragglerGain(t *testing.T) {
	a := AdaptiveConfig{SpeculationFactor: 2}
	idle := speed(100)
	cases := []struct {
		name                       string
		cfg                        AdaptiveConfig
		holder, idle               stats.Profile
		updates, transfer, elapsed float64
		want                       float64 // gain; 0 = must not fire
	}{
		// holder 100/10 = 10s left; idle 100/100 = 1s.
		{name: "slow holder fires", cfg: a, holder: speed(10), idle: idle, updates: 100, want: 9},
		{name: "elapsed counts against the holder", cfg: a, holder: speed(10), idle: idle, updates: 100, elapsed: 4, want: 5},
		{name: "near-done holder never fires", cfg: a, holder: speed(10), idle: speed(1e9), updates: 100, elapsed: 10},
		{name: "overdue holder never fires", cfg: a, holder: speed(10), idle: speed(1e9), updates: 100, elapsed: 30},
		// holder 2s left vs 2 × 1s: not strictly beyond the factor.
		{name: "factor boundary does not fire", cfg: a, holder: speed(50), idle: idle, updates: 100},
		{name: "just past the factor fires", cfg: a, holder: speed(49), idle: idle, updates: 100, want: 100.0/49 - 1},
		{name: "transfer ignored without bandwidth", cfg: a, holder: speed(10), idle: idle, updates: 100, transfer: 1e6, want: 9},
		// idle ETA 1s + 800/100 = 9s: 10s left is below 2 × 9s.
		{name: "transfer counts with bandwidth", cfg: a, holder: speed(10),
			idle: stats.Profile{UpdatesPerSec: 100, BytesPerSec: 100}, updates: 100, transfer: 800},
		{name: "transfer shrinks the gain", cfg: a, holder: speed(10),
			idle: stats.Profile{UpdatesPerSec: 100, BytesPerSec: 100}, updates: 100, transfer: 200, want: 7},
		{name: "unprofiled holder never fires", cfg: a, idle: idle, updates: 100},
		{name: "unprofiled idle worker never fires", cfg: a, holder: speed(10), updates: 100},
		{name: "factor 0 is off", holder: speed(10), idle: idle, updates: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gain, ok := tc.cfg.StragglerGain(tc.holder, tc.idle, tc.updates, tc.transfer, tc.elapsed)
			if ok != (tc.want > 0) || math.Abs(gain-tc.want) > 1e-12 {
				t.Fatalf("StragglerGain = %v, %v; want %v, %v", gain, ok, tc.want, tc.want > 0)
			}
		})
	}
}

// TestSpeculationTieBreak pins that equal speculation gains break
// deterministically, not by map order: two equally slow holders take
// one chunk each at the same instant, and a fast idle worker duplicates
// the lower seq — on every one of 40 fresh clusters.
func TestSpeculationTieBreak(t *testing.T) {
	for run := 0; run < 40; run++ {
		cl, _ := adaptiveCluster(AdaptiveConfig{SpeculationFactor: 1.5})
		// 2×1-block grid, T = 2: two 1×1 chunks for workers at 2 upd/s
		// (µ = √(2/2) = 1).
		c, a, b, _ := blockedInputs(t, 8, 8, 4, 4, 36)
		if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 2}); err != nil {
			t.Fatal(err)
		}
		var seqs []int
		for _, id := range []string{"slow1", "slow2"} {
			s := join(t, cl, id, 64, 1)
			s.ObserveCompute(engine.AssignID{}, 2, int64(time.Second))
			seqs = append(seqs, pullTask(t, s).Seq)
		}
		fast := join(t, cl, "fast", 64, 1)
		fast.ObserveCompute(engine.AssignID{}, 8000, int64(time.Second))
		dup := pullTask(t, fast)
		if want := min(seqs[0], seqs[1]); dup.Seq != want {
			t.Fatalf("run %d: duplicated seq %d of holders' %v, want %d", run, dup.Seq, seqs, want)
		}
		cl.Close()
	}
}
