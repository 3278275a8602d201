package fleet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// mem is the least memory holding a µ×µ chunk under the overlapped
// layout (µ² + 4µ ≤ m).
func mem(mu int) int { return core.ChunkFootprint(mu, mu, 2) }

// runOnePortExact runs RunOnePort and fails unless the committed C is
// bit-identical to matrix.MulNaive over the run's operands.
func runOnePortExact(t *testing.T, pl *platform.Platform, pr core.Problem, tr *trace.Trace) core.Result {
	t.Helper()
	res, spec, err := runOnePort(pl, pr, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewDense(pr.R, pr.S)
	matrix.MulNaive(want, spec.A.Assemble(), spec.B.Assemble())
	if !spec.C.Assemble().Equal(want, 0) {
		t.Fatal("committed C is not bit-identical to MulNaive")
	}
	return res
}

// computeBound is the makespan no schedule beats: every update spread
// over the aggregate compute rate of the platform.
func computeBound(pl *platform.Platform, pr core.Problem) float64 {
	var rate float64
	for _, wk := range pl.Workers {
		rate += 1 / wk.W
	}
	return float64(pr.Updates()) / rate
}

func TestRunOnePortConservation(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	res := runOnePortExact(t, pl, pr, nil)
	if res.Updates != pr.Updates() {
		t.Fatalf("updates %d, want %d", res.Updates, pr.Updates())
	}
	if res.Enrolled < 1 || res.Enrolled > 3 {
		t.Fatalf("enrolled %d", res.Enrolled)
	}
	if lb := computeBound(pl, pr); res.Makespan < lb {
		t.Fatalf("makespan %v below aggregate compute bound %v", res.Makespan, lb)
	}
}

func TestRunOnePortSingleWorkerExactMakespan(t *testing.T) {
	// One worker, µ=2, r=s=2, t=2: one 2×2 chunk, two update sets of 4
	// blocks (2 rows + 2 cols), each enabling 4 updates. C down [0,4]; AB1
	// [4,8], compute [8,20]; AB2 holds the port until the one staging
	// buffer frees, [8,20], compute [20,32]; C back [32,36].
	pl := platform.New(platform.Worker{C: 1, W: 3, M: mem(2)})
	res := runOnePortExact(t, pl, core.Problem{R: 2, S: 2, T: 2, Q: 8}, nil)
	if res.Makespan != 36 {
		t.Fatalf("makespan %v, want 36", res.Makespan)
	}
	if res.Blocks != 16 { // 4 C down + 2×4 AB + 4 C back
		t.Fatalf("blocks %d, want 16", res.Blocks)
	}
}

// TestRunOnePortFirstSetKey pins when a chunk's first update set is
// requested: when its C chunk arrives (sim.FirstToReceive), not at the
// worker's previous compute end, which comes before that arrival. P1
// (w=3) gets its C at [0,1] and P2 (w=1) at [1,2], both before any
// update set; P1's set [2,4] computes [4,7], P2's [4,6] computes [6,7],
// and the C chunks return [7,8] and [8,9]. Keyed at the previous
// compute end (0), P1's set would have gone before P2's C and the run
// would have ended at 8.
func TestRunOnePortFirstSetKey(t *testing.T) {
	pl := platform.New(
		platform.Worker{C: 1, W: 3, M: mem(1)},
		platform.Worker{C: 1, W: 1, M: mem(1)},
	)
	res := runOnePortExact(t, pl, core.Problem{R: 1, S: 2, T: 1, Q: 8}, nil)
	if res.Makespan != 9 {
		t.Fatalf("makespan %v, want 9", res.Makespan)
	}
}

func TestRunOnePortTraceConsistent(t *testing.T) {
	tr := &trace.Trace{}
	res := runOnePortExact(t, workload.Table2(), core.Problem{R: 12, S: 12, T: 3, Q: 80}, tr)
	if math.Abs(tr.Makespan()-res.Makespan) > 1e-9 {
		t.Fatalf("trace makespan %v vs result %v", tr.Makespan(), res.Makespan)
	}
}

func TestRunOnePortErrors(t *testing.T) {
	if _, err := RunOnePort(platform.New(), core.Problem{R: 1, S: 1, T: 1, Q: 1}, nil); err == nil {
		t.Fatal("empty platform accepted")
	}
	pl := platform.New(platform.Worker{C: 1, W: 1, M: 4})
	if _, err := RunOnePort(pl, core.Problem{R: 1, S: 1, T: 1, Q: 1}, nil); err == nil {
		t.Fatal("µ=0 platform accepted")
	}
	if _, err := RunOnePort(workload.Table2(), core.Problem{}, nil); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// Property: the cluster scheduler on the one-port star conserves work
// on random platforms and problems, commits C bit-exact, and is never
// faster than the aggregate compute lower bound.
func TestQuickOnePortInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(pRaw, rRaw, sRaw, tRaw uint8) bool {
		p := int(pRaw%4) + 1
		pl := platform.RandomHeterogeneous(rng, p, 1, 1, 80, 3, 3, 2)
		pr := core.Problem{
			R: int(rRaw%15) + 1, S: int(sRaw%15) + 1, T: int(tRaw%4) + 1, Q: 8,
		}
		res := runOnePortExact(t, pl, pr, nil)
		return res.Updates == pr.Updates() && res.Makespan >= computeBound(pl, pr)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// The cluster scheduler should be in the same ballpark as the static
// incremental algorithms on the Table 2 platform (neither
// pathologically slow nor impossibly fast).
func TestRunOnePortComparableToStatic(t *testing.T) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 10, Q: 80}
	dyn := runOnePortExact(t, pl, pr, nil)
	stat, _, err := hetero.Run(pl, pr, hetero.Global, hetero.ExecOptions{IncludeCIO: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cluster %v, global %v", dyn.Makespan, stat.Makespan)
	if dyn.Makespan > 3*stat.Makespan || stat.Makespan > 3*dyn.Makespan {
		t.Fatalf("cluster %v and static %v are not comparable", dyn.Makespan, stat.Makespan)
	}
}
