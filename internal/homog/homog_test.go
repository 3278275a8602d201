package homog

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestSelectLargeMatrix(t *testing.T) {
	// §5 example regime: µ = 98 (m = 10000), w/c = 0.0625 ⇒
	// P = ⌈98·0.0625/2⌉ = ⌈3.0625⌉ = 4.
	cal := platform.UTKCalibration()
	c, w := cal.BlockCosts(80)
	pl := platform.Homogeneous(8, c, w, 10000)
	pr := core.MustProblem(16000, 16000, 64000, 80)
	sel, err := Select(pl, pr)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Mu != 98 || sel.P != 4 || sel.Reduced {
		t.Fatalf("sel = %+v, want µ=98 P=4", sel)
	}
}

func TestSelectSmallMemory(t *testing.T) {
	// 132 MB ⇒ m = 2703 blocks ⇒ µ = 50; P = ⌈50·0.0625/2⌉ = 2.
	cal := platform.UTKCalibration()
	c, w := cal.BlockCosts(80)
	m := platform.MemoryBlocks(132<<20, 80)
	pl := platform.Homogeneous(8, c, w, m)
	pr := core.MustProblem(16000, 16000, 64000, 80)
	sel, err := Select(pl, pr)
	if err != nil {
		t.Fatal(err)
	}
	if sel.P != 2 {
		t.Fatalf("P = %d, want 2 (Figure 13 at 132 MB)", sel.P)
	}
}

func TestSelectCapsAtPlatform(t *testing.T) {
	// fast compute relative to links wants many workers; cap at p.
	pl := platform.Homogeneous(3, 0.001, 1.0, 1000)
	pr := core.Problem{R: 100, S: 100, T: 10, Q: 8}
	sel, err := Select(pl, pr)
	if err != nil {
		t.Fatal(err)
	}
	if sel.P != 3 {
		t.Fatalf("P = %d, want all 3", sel.P)
	}
}

func TestSelectSmallMatrixFallback(t *testing.T) {
	// µ = 30 from memory but C is only 6×6 blocks: the fallback must pick
	// ν with ⌈νw/2c⌉·ν² ≤ 36.
	pl := platform.Homogeneous(8, 1, 1, 1024)
	pr := core.Problem{R: 6, S: 6, T: 4, Q: 8}
	sel, err := Select(pl, pr)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Reduced {
		t.Fatal("fallback not triggered")
	}
	if int64(sel.P)*int64(sel.Mu)*int64(sel.Mu) > 36 {
		t.Fatalf("selected P=%d ν=%d exceeds r·s=36", sel.P, sel.Mu)
	}
	if sel.Mu < 1 || sel.P < 1 {
		t.Fatalf("degenerate selection %+v", sel)
	}
}

func TestSelectRejectsHeterogeneous(t *testing.T) {
	pl := platform.New(platform.Worker{C: 1, W: 1, M: 100}, platform.Worker{C: 2, W: 1, M: 100})
	if _, err := Select(pl, core.Problem{R: 1, S: 1, T: 1, Q: 1}); err == nil {
		t.Fatal("heterogeneous platform accepted")
	}
}

func TestSelectRejectsTinyMemory(t *testing.T) {
	pl := platform.Homogeneous(2, 1, 1, 4) // µ = 0
	if _, err := Select(pl, core.Problem{R: 1, S: 1, T: 1, Q: 1}); err == nil {
		t.Fatal("memory m=4 accepted")
	}
}

func TestChunkGridCoverage(t *testing.T) {
	pr := core.Problem{R: 7, S: 5, T: 3, Q: 8}
	grid, pool := ChunkGrid(pr, 3)
	if len(grid) != 2 { // ceil(5/3) panels
		t.Fatalf("%d panels, want 2", len(grid))
	}
	if len(pool) != 6 { // 2 panels × ceil(7/3)=3 row chunks
		t.Fatalf("%d chunks, want 6", len(pool))
	}
	// The pool is panel-major: down the first column panel first.
	if p := pool[1]; p.I0 != 3 || p.J0 != 0 {
		t.Fatalf("pool[1] at (%d,%d), want (3,0)", p.I0, p.J0)
	}
	covered := make([][]bool, pr.R)
	for i := range covered {
		covered[i] = make([]bool, pr.S)
	}
	var updates int64
	for _, ch := range pool {
		for i := ch.I0; i < ch.I0+ch.Rows; i++ {
			for j := ch.J0; j < ch.J0+ch.Cols; j++ {
				if covered[i][j] {
					t.Fatalf("block (%d,%d) covered twice", i, j)
				}
				covered[i][j] = true
			}
		}
		if len(ch.Steps) != pr.T {
			t.Fatalf("chunk %d has %d steps, want %d", ch.ID, len(ch.Steps), pr.T)
		}
		for _, st := range ch.Steps {
			updates += st.Updates
		}
	}
	for i := range covered {
		for j := range covered[i] {
			if !covered[i][j] {
				t.Fatalf("block (%d,%d) not covered", i, j)
			}
		}
	}
	if updates != pr.Updates() {
		t.Fatalf("chunk updates %d, want %d", updates, pr.Updates())
	}
}

func TestBuildPlanOpsStructure(t *testing.T) {
	pl := platform.Homogeneous(4, 1, 1, 1000)
	pr := core.Problem{R: 4, S: 4, T: 3, Q: 8}
	plan := BuildPlan(pl, pr, 2, 2)
	// 2 panels per group, 2 row chunks per panel: chunks = 4; per round of
	// 2 chunks: 2 SendC + 3×2 SendAB + 2 RecvC = 10 ops; 2 rounds.
	if len(plan.Ops) != 20 {
		t.Fatalf("%d ops, want 20", len(plan.Ops))
	}
	counts := map[sim.OpKind]int{}
	for _, op := range plan.Ops {
		counts[op.Kind]++
		if op.Worker < 0 || op.Worker >= 2 {
			t.Fatalf("op for worker %d outside the enrolled set", op.Worker)
		}
	}
	if counts[sim.SendC] != 4 || counts[sim.RecvC] != 4 || counts[sim.SendAB] != 12 {
		t.Fatalf("op counts %v", counts)
	}
	// queues: only enrolled workers get chunks
	if len(plan.Queues[0]) == 0 || len(plan.Queues[1]) == 0 {
		t.Fatal("enrolled workers have empty queues")
	}
	if len(plan.Queues[2]) != 0 || len(plan.Queues[3]) != 0 {
		t.Fatal("non-enrolled workers received chunks")
	}
}

func TestStartupOverheadBound(t *testing.T) {
	// §5 example: c = 2, w = 4.5, µ = 4, t = 100 ⇒ bound ≈ 4 %.
	got := StartupOverheadBound(4, 100, 2, 4.5)
	if got < 0.04 || got > 0.05 {
		t.Fatalf("bound = %v, want ≈0.0489 (the paper's ≤4%% example rounds this)", got)
	}
}

// Property: BuildPlan's ops are exactly consistent with its queues — the
// simulator's SequencePolicy must accept them without panicking, for any
// shape and enrollment.
func TestQuickPlanConsistency(t *testing.T) {
	f := func(rRaw, sRaw, tRaw, pRaw, sideRaw uint8) bool {
		pr := core.Problem{
			R: int(rRaw%9) + 1, S: int(sRaw%9) + 1, T: int(tRaw%4) + 1, Q: 4,
		}
		p := int(pRaw%4) + 1
		side := int(sideRaw%4) + 1
		pl := platform.Homogeneous(p, 1, 0.5, 1000)
		plan := BuildPlan(pl, pr, p, side)
		cfg := make([]sim.WorkerConfig, p)
		for i := range cfg {
			cfg[i] = sim.WorkerConfig{StageCap: 2}
		}
		res, err := sim.Run(sim.Input{
			Platform: pl,
			Configs:  cfg,
			Queues:   plan.Queues,
			Policy:   sim.NewSequencePolicy("plan", plan.Ops),
		})
		return err == nil && res.Updates == pr.Updates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
