package hetero

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

func TestRunDemandConservation(t *testing.T) {
	pl := table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	res, err := RunDemand(pl, pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != pr.Updates() {
		t.Fatalf("updates %d, want %d", res.Updates, pr.Updates())
	}
	if res.Enrolled < 1 || res.Enrolled > 3 {
		t.Fatalf("enrolled %d", res.Enrolled)
	}
	// compute lower bound
	var rate float64
	for _, wk := range pl.Workers {
		rate += 1 / wk.W
	}
	if res.Makespan < float64(pr.Updates())/rate {
		t.Fatalf("makespan %v below aggregate compute bound", res.Makespan)
	}
}

func TestRunDemandSingleWorkerExactMakespan(t *testing.T) {
	// One worker, µ=2, r=s=2, t=2: one 2×2 chunk, two update sets of 4
	// blocks (2 rows + 2 cols), each enabling 4 updates. C down [0,4]; AB1
	// [4,8], compute [8,20]; AB2 holds the port until the one staging
	// buffer frees, [8,20], compute [20,32]; C back [32,36].
	pl := platform.New(platform.Worker{C: 1, W: 3, M: mem(2)})
	pr := core.Problem{R: 2, S: 2, T: 2, Q: 8}
	res, err := RunDemand(pl, pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 36 {
		t.Fatalf("makespan %v, want 36", res.Makespan)
	}
	if res.Blocks != 16 { // 4 C down + 2×4 AB + 4 C back
		t.Fatalf("blocks %d, want 16", res.Blocks)
	}
}

// TestRunDemandFirstSetKey pins when a chunk's first update set is
// requested: when its C chunk arrives (sim.FirstToReceive, as for ODDOML
// and OBMM), not at the worker's previous compute end, which comes before
// that arrival. P1 (w=3) gets its C at [0,1] and P2 (w=1) at [1,2], both
// before any update set; P1's set [2,4] computes [4,7], P2's [4,6]
// computes [6,7], and the C chunks return [7,8] and [8,9]. Keyed at the
// previous compute end (0), P1's set would have gone before P2's C and
// the run would have ended at 8.
func TestRunDemandFirstSetKey(t *testing.T) {
	pl := platform.New(
		platform.Worker{C: 1, W: 3, M: mem(1)},
		platform.Worker{C: 1, W: 1, M: mem(1)},
	)
	res, err := RunDemand(pl, core.Problem{R: 1, S: 2, T: 1, Q: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 9 {
		t.Fatalf("makespan %v, want 9", res.Makespan)
	}
}

func TestRunDemandTraceConsistent(t *testing.T) {
	tr := &trace.Trace{}
	pl := table2()
	pr := core.Problem{R: 12, S: 12, T: 3, Q: 80}
	res, err := RunDemand(pl, pr, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Makespan()-res.Makespan) > 1e-9 {
		t.Fatalf("trace makespan %v vs result %v", tr.Makespan(), res.Makespan)
	}
}

func TestRunDemandErrors(t *testing.T) {
	if _, err := RunDemand(platform.New(), core.Problem{R: 1, S: 1, T: 1, Q: 1}, nil); err == nil {
		t.Fatal("empty platform accepted")
	}
	pl := platform.New(platform.Worker{C: 1, W: 1, M: 4})
	if _, err := RunDemand(pl, core.Problem{R: 1, S: 1, T: 1, Q: 1}, nil); err == nil {
		t.Fatal("µ=0 platform accepted")
	}
	if _, err := RunDemand(table2(), core.Problem{}, nil); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// Property: the dynamic scheduler conserves work on random platforms and
// problems, and is never faster than the aggregate compute lower bound.
func TestQuickDemandInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(pRaw, rRaw, sRaw, tRaw uint8) bool {
		p := int(pRaw%4) + 1
		pl := platform.RandomHeterogeneous(rng, p, 1, 1, 80, 3, 3, 2)
		pr := core.Problem{
			R: int(rRaw%15) + 1, S: int(sRaw%15) + 1, T: int(tRaw%4) + 1, Q: 8,
		}
		res, err := RunDemand(pl, pr, nil)
		if err != nil {
			return false
		}
		var rate float64
		for _, wk := range pl.Workers {
			rate += 1 / wk.W
		}
		return res.Updates == pr.Updates() && res.Makespan >= float64(pr.Updates())/rate-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The dynamic baseline should be in the same ballpark as the static
// incremental algorithms on the Table 2 platform (neither pathologically
// slow nor impossibly fast).
func TestRunDemandComparableToStatic(t *testing.T) {
	pl := table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	dyn, err := RunDemand(pl, pr, nil)
	if err != nil {
		t.Fatal(err)
	}
	stat, _, err := Run(pl, pr, Global, ExecOptions{IncludeCIO: true})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan > 3*stat.Makespan || stat.Makespan > 3*dyn.Makespan {
		t.Fatalf("dynamic %v and static %v are not comparable", dyn.Makespan, stat.Makespan)
	}
}
