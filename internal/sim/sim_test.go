package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/trace"
)

// chunk builds a test chunk: blocksC C blocks, t steps of (blocks,
// updates) each.
func chunk(id, blocksC, t, blocks int, updates int64) *Chunk {
	ch := &Chunk{ID: id, Blocks: blocksC}
	for k := 0; k < t; k++ {
		ch.Steps = append(ch.Steps, Step{Blocks: blocks, Updates: updates})
	}
	return ch
}

func seq(ops ...SeqOp) *SequencePolicy { return NewSequencePolicy("test", ops) }

func TestSingleWorkerTiming(t *testing.T) {
	// one worker, c=1, w=2; one chunk of 4 C blocks, 2 steps of 3 blocks /
	// 5 updates.
	pl := platform.Homogeneous(1, 1, 2, 100)
	ch := chunk(0, 4, 2, 3, 5)
	res, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 2}},
		Queues:   [][]*Chunk{{ch}},
		Policy: seq(
			SeqOp{0, SendC}, SeqOp{0, SendAB}, SeqOp{0, SendAB}, SeqOp{0, RecvC},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	// SendC: [0,4]; AB1: [4,7] → compute [7,17]; AB2: [7,10] → compute
	// [17,27]; RecvC: starts max(10, 27)=27, ends 31.
	if res.Makespan != 31 {
		t.Fatalf("makespan %v, want 31", res.Makespan)
	}
	if res.Blocks != 4+3+3+4 {
		t.Fatalf("blocks %d, want 14", res.Blocks)
	}
	if res.Updates != 10 {
		t.Fatalf("updates %d, want 10", res.Updates)
	}
	if res.Enrolled != 1 || res.Chunks != 1 {
		t.Fatalf("enrolled %d chunks %d", res.Enrolled, res.Chunks)
	}
}

func TestStagingBlocksPort(t *testing.T) {
	// StageCap 1: the second AB transfer cannot complete before the first
	// step's compute finishes.
	pl := platform.Homogeneous(1, 1, 10, 100)
	ch := chunk(0, 1, 2, 2, 3) // step compute = 30, comm = 2
	tr1 := &trace.Trace{}
	res, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 1}},
		Queues:   [][]*Chunk{{ch}},
		Policy: seq(
			SeqOp{0, SendC}, SeqOp{0, SendAB}, SeqOp{0, SendAB}, SeqOp{0, RecvC},
		),
		Trace: tr1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SendC [0,1]; AB1 [1,3], compute [3,33]; AB2 ends max(3+2, 33) = 33,
	// compute [33,63]; RecvC [63,64].
	if res.Makespan != 64 {
		t.Fatalf("makespan %v, want 64", res.Makespan)
	}

	// With StageCap 2 the second transfer overlaps the first compute.
	tr2 := &trace.Trace{}
	res2, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 2}},
		Queues:   [][]*Chunk{{chunk(0, 1, 2, 2, 3)}},
		Policy: seq(
			SeqOp{0, SendC}, SeqOp{0, SendAB}, SeqOp{0, SendAB}, SeqOp{0, RecvC},
		),
		Trace: tr2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// AB2 [3,5], compute2 [33,63]; RecvC [63,64] — same end here but the
	// port is held until 33 in the cap-1 case and only until 5 with
	// double buffering.
	if res2.Makespan != 64 {
		t.Fatalf("makespan %v, want 64", res2.Makespan)
	}
	if got1, got2 := tr1.BusyTime("M"), tr2.BusyTime("M"); !(got2 < got1) {
		t.Fatalf("overlap should shorten port occupancy: cap1=%v cap2=%v", got1, got2)
	}
	if tr2.BusyTime("M") != 6 { // 1 + 2 + 2 + 1
		t.Fatalf("cap-2 port occupancy %v, want 6", tr2.BusyTime("M"))
	}
}

func TestTwoWorkersOverlapCompute(t *testing.T) {
	// Two workers compute concurrently: total makespan far below the
	// serial compute sum.
	pl := platform.Homogeneous(2, 0.1, 1, 100)
	q0 := chunk(0, 1, 4, 1, 10)
	q1 := chunk(1, 1, 4, 1, 10)
	var ops []SeqOp
	ops = append(ops, SeqOp{0, SendC}, SeqOp{1, SendC})
	for k := 0; k < 4; k++ {
		ops = append(ops, SeqOp{0, SendAB}, SeqOp{1, SendAB})
	}
	ops = append(ops, SeqOp{0, RecvC}, SeqOp{1, RecvC})
	res, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 2}, {StageCap: 2}},
		Queues:   [][]*Chunk{{q0}, {q1}},
		Policy:   seq(ops...),
	})
	if err != nil {
		t.Fatal(err)
	}
	serialCompute := 2 * 4 * 10.0
	if res.Makespan > serialCompute*0.6 {
		t.Fatalf("no overlap: makespan %v vs serial %v", res.Makespan, serialCompute)
	}
	if res.Enrolled != 2 {
		t.Fatalf("enrolled %d", res.Enrolled)
	}
}

func TestPoolModeDrainsAllChunks(t *testing.T) {
	pl := platform.Homogeneous(3, 1, 1, 100)
	var pool []*Chunk
	for i := 0; i < 7; i++ {
		pool = append(pool, chunk(i, 2, 2, 2, 4))
	}
	for _, rule := range []DemandRule{FirstToReceive, FirstToCompute, MinMinStart} {
		poolCopy := append([]*Chunk(nil), pool...)
		res, err := Run(Input{
			Platform: pl,
			Configs:  []WorkerConfig{{2}, {2}, {2}},
			Pool:     poolCopy,
			Policy:   NewDemandPolicy("demand", rule),
		})
		if err != nil {
			t.Fatalf("rule %v: %v", rule, err)
		}
		if res.Updates != 7*2*4 {
			t.Fatalf("rule %v: updates %d", rule, res.Updates)
		}
		if res.Chunks != 7 {
			t.Fatalf("rule %v: chunks %d", rule, res.Chunks)
		}
	}
}

// TestSourceCarvesOnClaim feeds a pool's chunks through Input.Source
// instead: a chunk is carved only when its SendC is picked, and the run
// matches the Pool run of the same chunks.
func TestSourceCarvesOnClaim(t *testing.T) {
	pool := func() []*Chunk {
		var p []*Chunk
		for i := 0; i < 6; i++ {
			p = append(p, chunk(i, 2, 3, 2, 2))
		}
		return p
	}
	run := func(in Input) Result {
		t.Helper()
		in.Platform = platform.Homogeneous(3, 1, 4, 100)
		in.Configs = []WorkerConfig{{StageCap: 2}, {StageCap: 2}, {StageCap: 2}}
		in.Policy = NewDemandPolicy("fcfs", FirstToReceive)
		res, err := Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Input{Pool: pool()})
	left, claims := pool(), 0
	res := run(Input{Source: func(w int, claim bool) *Chunk {
		if len(left) == 0 {
			return nil
		}
		ch := left[0]
		if claim {
			left, claims = left[1:], claims+1
		}
		return ch
	}})
	if claims != 6 || res.Chunks != 6 {
		t.Fatalf("%d claims, %d chunks, want 6", claims, res.Chunks)
	}
	if res.Makespan != want.Makespan || res.Blocks != want.Blocks || res.Updates != want.Updates || res.Chunks != want.Chunks {
		t.Fatalf("source run %+v differs from pool run %+v", res, want)
	}
}

func TestInputValidation(t *testing.T) {
	pl := platform.Homogeneous(1, 1, 1, 100)
	if _, err := Run(Input{}); err == nil {
		t.Fatal("nil platform accepted")
	}
	if _, err := Run(Input{Platform: pl}); err == nil {
		t.Fatal("missing configs accepted")
	}
	if _, err := Run(Input{Platform: pl, Configs: []WorkerConfig{{1}}}); err == nil {
		t.Fatal("nil policy accepted")
	}
	for name, in := range map[string]Input{
		"queues and pool": {Queues: [][]*Chunk{{}}, Pool: []*Chunk{chunk(0, 1, 1, 1, 1)}},
		"pool and source": {Pool: []*Chunk{chunk(0, 1, 1, 1, 1)}, Source: func(int, bool) *Chunk { return nil }},
	} {
		in.Platform, in.Configs, in.Policy = pl, []WorkerConfig{{1}}, seq()
		if _, err := Run(in); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestSequencePolicyRejectsBadSequences: a sequence that runs out while
// work remains, and one whose next op is not a legal candidate, each make
// Run fail.
func TestSequencePolicyRejectsBadSequences(t *testing.T) {
	pl := platform.Homogeneous(1, 1, 1, 100)
	for name, ops := range map[string][]SeqOp{
		"short":        {{0, SendC}, {0, SendAB}},
		"out of order": {{0, RecvC}}, // RecvC before anything was sent
	} {
		_, err := Run(Input{
			Platform: pl,
			Configs:  []WorkerConfig{{1}},
			Queues:   [][]*Chunk{{chunk(0, 1, 1, 1, 1)}},
			Policy:   seq(ops...),
		})
		if err == nil {
			t.Errorf("%s sequence accepted", name)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	pl := platform.Homogeneous(1, 1, 1, 100)
	tr := &trace.Trace{}
	_, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{2}},
		Queues:   [][]*Chunk{{chunk(0, 1, 1, 1, 1)}},
		Policy:   seq(SeqOp{0, SendC}, SeqOp{0, SendAB}, SeqOp{0, RecvC}),
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 4 { // 3 comms + 1 compute
		t.Fatalf("%d spans, want 4", len(tr.Spans))
	}
	if tr.BusyTime("M") != 3 || tr.BusyTime("P1") != 1 {
		t.Fatalf("busy times M=%v P1=%v", tr.BusyTime("M"), tr.BusyTime("P1"))
	}
}

func TestHeterogeneousCosts(t *testing.T) {
	// Worker 2 has a 10× slower link: the same chunk takes longer there.
	pl := platform.New(
		platform.Worker{C: 1, W: 1, M: 100},
		platform.Worker{C: 10, W: 1, M: 100},
	)
	run := func(w int) float64 {
		queues := [][]*Chunk{nil, nil}
		queues[w] = []*Chunk{chunk(0, 2, 1, 2, 1)}
		res, err := Run(Input{
			Platform: pl,
			Configs:  []WorkerConfig{{2}, {2}},
			Queues:   queues,
			Policy:   seq(SeqOp{w, SendC}, SeqOp{w, SendAB}, SeqOp{w, RecvC}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	fast, slow := run(0), run(1)
	if !(slow > fast*5) {
		t.Fatalf("slow link not honoured: fast=%v slow=%v", fast, slow)
	}
}

// Property: for any random chunk set and any policy, conservation holds —
// every update is performed exactly once and every block transfer is
// accounted (C twice, steps once).
func TestQuickConservation(t *testing.T) {
	f := func(nRaw, tRaw, pRaw uint8, ruleRaw uint8) bool {
		n := int(nRaw%6) + 1
		tt := int(tRaw%4) + 1
		p := int(pRaw%3) + 1
		rule := DemandRule(int(ruleRaw) % 3)
		pl := platform.Homogeneous(p, 1, 1, 100)
		var pool []*Chunk
		var wantBlocks int64
		var wantUpdates int64
		for i := 0; i < n; i++ {
			ch := chunk(i, 2, tt, 3, 4)
			pool = append(pool, ch)
			wantBlocks += int64(2*2 + tt*3)
			wantUpdates += int64(tt * 4)
		}
		cfg := make([]WorkerConfig, p)
		for i := range cfg {
			cfg[i] = WorkerConfig{StageCap: 1 + i%2}
		}
		res, err := Run(Input{
			Platform: pl, Configs: cfg, Pool: pool,
			Policy: NewDemandPolicy("q", rule),
		})
		if err != nil {
			return false
		}
		return res.Blocks == wantBlocks && res.Updates == wantUpdates &&
			math.Abs(res.PortBusy) <= res.Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPortOverlapsReturns(t *testing.T) {
	// One worker processing two chunks: under the unidirectional one-port
	// model the next chunk's distribution queues behind the previous
	// chunk's retrieval; the bidirectional (two-port) master overlaps
	// them and the makespan shrinks.
	pl := platform.Homogeneous(1, 1, 1, 100)
	mk := func() [][]*Chunk {
		return [][]*Chunk{{chunk(0, 10, 1, 2, 3), chunk(1, 10, 1, 2, 3)}}
	}
	ops := []SeqOp{
		{0, SendC}, {0, SendAB}, {0, RecvC},
		{0, SendC}, {0, SendAB}, {0, RecvC},
	}
	run := func(twoPort bool) float64 {
		res, err := Run(Input{
			Platform: pl,
			Configs:  []WorkerConfig{{2}},
			Queues:   mk(),
			Policy:   seq(ops...),
			TwoPort:  twoPort,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	one, two := run(false), run(true)
	// one-port: 0-10 C, 10-12 AB, 12-15 compute, 15-25 recv, 25-35 C,
	// 35-37 AB, 37-40 compute, 40-50 recv.
	if one != 50 {
		t.Fatalf("one-port makespan %v, want 50", one)
	}
	// two-port: the second chunk's C send (12-22) overlaps the first
	// retrieval (15-25); makespan 37 via recv 27-37.
	if two != 37 {
		t.Fatalf("two-port makespan %v, want 37", two)
	}
}
