package hetero

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/steady"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTable2GlobalFirstSteps replays the paper's step-by-step trace of the
// global selection algorithm (§6.2.1).
func TestTable2GlobalFirstSteps(t *testing.T) {
	pl := workload.Table2()
	st := NewState(pl)
	if got := st.Mus; got[0] != 6 || got[1] != 18 || got[2] != 10 {
		t.Fatalf("µ = %v, want [6 18 10]", got)
	}

	// Step 1 scores: ratio_i = µ_i²/(2µ_i c_i) = 1.5, 3, 1 → pick P2.
	s1 := []float64{st.globalScore(pl, 0), st.globalScore(pl, 1), st.globalScore(pl, 2)}
	want1 := []float64{1.5, 3, 1}
	for i := range want1 {
		if math.Abs(s1[i]-want1[i]) > 1e-12 {
			t.Fatalf("step-1 score P%d = %v, want %v", i+1, s1[i], want1[i])
		}
	}
	if next := st.Step(pl, Global); next != 1 {
		t.Fatalf("step 1 selected P%d, want P2", next+1)
	}
	// paper: total-work = 324, completion-time = 108, ready2 = 1080,
	// nb-block2 = 36.
	if st.TotalWork != 324 || st.CompletionTime != 108 || st.Ready[1] != 1080 || st.NbBlock[1] != 36 {
		t.Fatalf("after step 1: work=%v ct=%v ready2=%v nb2=%d",
			st.TotalWork, st.CompletionTime, st.Ready[1], st.NbBlock[1])
	}

	// Step 2 scores: 360/132 ≈ 2.727, 648/1080 = 0.6, 424/208 ≈ 2.038.
	s2 := []float64{st.globalScore(pl, 0), st.globalScore(pl, 1), st.globalScore(pl, 2)}
	want2 := []float64{360.0 / 132, 0.6, 424.0 / 208}
	for i := range want2 {
		if math.Abs(s2[i]-want2[i]) > 1e-12 {
			t.Fatalf("step-2 score P%d = %v, want %v", i+1, s2[i], want2[i])
		}
	}
	if next := st.Step(pl, Global); next != 0 {
		t.Fatalf("step 2 selected P%d, want P1", next+1)
	}
	if st.TotalWork != 360 || st.CompletionTime != 132 || st.Ready[0] != 204 || st.NbBlock[0] != 12 {
		t.Fatalf("after step 2: work=%v ct=%v ready1=%v nb1=%d",
			st.TotalWork, st.CompletionTime, st.Ready[0], st.NbBlock[0])
	}

	// Step 3 selects P3.
	if next := st.Step(pl, Global); next != 2 {
		t.Fatalf("step 3 selected P%d, want P3", next+1)
	}
}

// TestTable2GlobalPattern checks the cyclic pattern of Figure 7: "13
// consecutive communications, one to P2 followed by 12 ones alternating
// between P1 and P3".
func TestTable2GlobalPattern(t *testing.T) {
	pl := workload.Table2()
	st := NewState(pl)
	for i := 0; i < 13; i++ {
		st.Step(pl, Global)
	}
	sel := st.Selections
	if sel[0] != 1 {
		t.Fatalf("first selection P%d, want P2", sel[0]+1)
	}
	for i := 1; i < 13; i++ {
		want := 0 // P1 on odd positions
		if i%2 == 0 {
			want = 2 // P3 on even positions
		}
		if sel[i] != want {
			t.Fatalf("selection %d is P%d, want P%d (alternating P1/P3)", i, sel[i]+1, want+1)
		}
	}
	// the 14th decision of the global algorithm goes back to P2
	if next := st.Step(pl, Global); next != 1 {
		t.Fatalf("14th selection P%d, want P2", next+1)
	}
}

// TestTable2LocalDivergesAt14 reproduces §6.2.2: the local algorithm takes
// the same first 13 decisions, then picks P1 where global picks P2, and P2
// at the 15th decision (Figure 8).
func TestTable2LocalDivergesAt14(t *testing.T) {
	pl := workload.Table2()
	g := NewState(pl)
	l := NewState(pl)
	for i := 0; i < 13; i++ {
		gs := g.Step(pl, Global)
		ls := l.Step(pl, Local)
		if gs != ls {
			t.Fatalf("decision %d differs: global P%d, local P%d", i+1, gs+1, ls+1)
		}
	}
	g14 := g.Step(pl, Global)
	l14 := l.Step(pl, Local)
	if g14 != 1 || l14 != 0 {
		t.Fatalf("decision 14: global P%d (want P2), local P%d (want P1)", g14+1, l14+1)
	}
	if l15 := l.Step(pl, Local); l15 != 1 {
		t.Fatalf("decision 15 of local: P%d, want P2", l15+1)
	}
}

// TestTable2AsymptoticRatios pins the paper's reported ratios: global
// 1.17, local 1.21, two-step-ahead 1.30, steady-state upper bound 1.39.
func TestTable2AsymptoticRatios(t *testing.T) {
	pl := workload.Table2()
	run := func(rule Rule) float64 {
		st := NewState(pl)
		for i := 0; i < 20000; i++ {
			st.Step(pl, rule)
		}
		return st.Ratio()
	}
	if r := run(Global); math.Abs(r-1.17) > 0.01 {
		t.Fatalf("global ratio %v, want 1.17±0.01", r)
	}
	if r := run(Local); math.Abs(r-1.21) > 0.01 {
		t.Fatalf("local ratio %v, want 1.21±0.01", r)
	}
	if r := run(TwoStep); math.Abs(r-1.30) > 0.015 {
		t.Fatalf("two-step ratio %v, want 1.30±0.015", r)
	}
	sol, err := steady.Solve(pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Throughput-1.39) > 0.005 {
		t.Fatalf("steady-state %v, want 1.39", sol.Throughput)
	}
	// the steady state is an upper bound on every incremental ratio
	for _, rule := range []Rule{Global, Local, TwoStep} {
		if r := run(rule); r > sol.Throughput {
			t.Fatalf("%v ratio %v exceeds steady-state bound %v", rule, r, sol.Throughput)
		}
	}
}

func TestAllocateCoversAllColumns(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	for _, rule := range []Rule{Global, Local, TwoStep} {
		alloc, err := Allocate(pl, pr, rule)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if len(alloc.Columns) != pr.S {
			t.Fatalf("%v: %d columns, want %d", rule, len(alloc.Columns), pr.S)
		}
		total := 0
		for _, p := range alloc.Panels {
			total += p.Columns
		}
		if total != pr.S {
			t.Fatalf("%v: panel columns sum to %d, want %d", rule, total, pr.S)
		}
		for j, w := range alloc.Columns {
			if w < 0 || w >= pl.P() {
				t.Fatalf("%v: column %d owned by invalid worker %d", rule, j, w)
			}
		}
	}
}

func TestExecuteConservation(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	for _, rule := range []Rule{Global, Local, TwoStep} {
		res, alloc, err := Run(pl, pr, rule, ExecOptions{IncludeCIO: true})
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if res.Updates != pr.Updates() {
			t.Fatalf("%v: %d updates, want %d", rule, res.Updates, pr.Updates())
		}
		if res.Makespan <= 0 {
			t.Fatalf("%v: non-positive makespan", rule)
		}
		// lower bound: total work over the aggregate compute rate
		var rate float64
		for _, wk := range pl.Workers {
			rate += 1 / wk.W
		}
		if res.Makespan < float64(pr.Updates())/rate-1e-9 {
			t.Fatalf("%v: makespan %v below compute bound", rule, res.Makespan)
		}
		if alloc.Ratio <= 0 {
			t.Fatalf("%v: ratio %v", rule, alloc.Ratio)
		}
	}
}

func TestExecuteWithoutCIO(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	with, _, err := Run(pl, pr, Global, ExecOptions{IncludeCIO: true})
	if err != nil {
		t.Fatal(err)
	}
	without, _, err := Run(pl, pr, Global, ExecOptions{IncludeCIO: false})
	if err != nil {
		t.Fatal(err)
	}
	if !(without.Blocks < with.Blocks) {
		t.Fatalf("C I/O accounting missing: %d vs %d blocks", without.Blocks, with.Blocks)
	}
	if !(without.Makespan <= with.Makespan) {
		t.Fatalf("neglecting C I/O cannot be slower: %v vs %v", without.Makespan, with.Makespan)
	}
}

func TestExecuteTrace(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 18, S: 18, T: 4, Q: 80}
	tr := &trace.Trace{}
	res, _, err := Run(pl, pr, Global, ExecOptions{IncludeCIO: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan() <= 0 || tr.Makespan() > res.Makespan+1e-9 {
		t.Fatalf("trace makespan %v vs result %v", tr.Makespan(), res.Makespan)
	}
	if tr.BusyTime("M") <= 0 {
		t.Fatal("no master communications traced")
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(platform.New(), core.Problem{R: 1, S: 1, T: 1, Q: 1}, Global); err == nil {
		t.Fatal("empty platform accepted")
	}
	pl := platform.New(platform.Worker{C: 1, W: 1, M: 4}) // µ=0
	if _, err := Allocate(pl, core.Problem{R: 1, S: 1, T: 1, Q: 1}, Global); err == nil {
		t.Fatal("µ=0 platform accepted")
	}
	if _, err := Allocate(workload.Table2(), core.Problem{}, Global); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestRuleString(t *testing.T) {
	if Global.String() != "global" || Local.String() != "local" || TwoStep.String() != "two-step" {
		t.Fatal("rule names wrong")
	}
}

// Property: on random platforms every rule allocates all columns, executes
// all updates, and respects the steady-state upper bound on the ratio.
func TestQuickRulesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(pRaw, sRaw uint8) bool {
		p := int(pRaw%4) + 1
		pl := platform.RandomHeterogeneous(rng, p, 1, 1, 80, 3, 3, 2)
		pr := core.Problem{R: 12, S: int(sRaw%24) + 1, T: 3, Q: 8}
		for _, rule := range []Rule{Global, Local} {
			res, _, err := Run(pl, pr, rule, ExecOptions{IncludeCIO: true})
			if err != nil {
				return false
			}
			if res.Updates != pr.Updates() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLookaheadGeneralizesTwoStep pins StepLookahead(2) to the TwoStep
// rule and checks that deeper horizons do not degrade the asymptotic
// ratio on the Table 2 platform.
func TestLookaheadGeneralizesTwoStep(t *testing.T) {
	pl := workload.Table2()
	a := NewState(pl)
	b := NewState(pl)
	for i := 0; i < 200; i++ {
		wa := a.Step(pl, TwoStep)
		wb := b.StepLookahead(pl, 2)
		if wa != wb {
			t.Fatalf("decision %d: TwoStep picked P%d, StepLookahead(2) picked P%d", i, wa+1, wb+1)
		}
	}
	if math.Abs(a.Ratio()-b.Ratio()) > 1e-12 {
		t.Fatalf("ratios diverge: %v vs %v", a.Ratio(), b.Ratio())
	}
}

func TestLookaheadDepthImproves(t *testing.T) {
	pl := workload.Table2()
	ratio := func(k, steps int) float64 {
		st := NewState(pl)
		for i := 0; i < steps; i++ {
			st.StepLookahead(pl, k)
		}
		return st.Ratio()
	}
	r1 := ratio(1, 3000)
	r3 := ratio(3, 3000)
	if !(r3 > r1) {
		t.Fatalf("depth 3 (%v) should beat depth 1 (%v)", r3, r1)
	}
	// and stay below the steady-state bound
	sol, err := steady.Solve(pl)
	if err != nil {
		t.Fatal(err)
	}
	if r3 > sol.Throughput {
		t.Fatalf("lookahead ratio %v exceeds the bound %v", r3, sol.Throughput)
	}
}

func TestLookaheadFloorsAtOne(t *testing.T) {
	pl := workload.Table2()
	st := NewState(pl)
	// k < 1 is clamped; the call must still commit a selection
	if w := st.StepLookahead(pl, 0); w < 0 || w > 2 {
		t.Fatalf("invalid selection %d", w)
	}
	if len(st.Selections) != 1 {
		t.Fatalf("%d selections committed", len(st.Selections))
	}
}
