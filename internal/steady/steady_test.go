package steady

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/workload"
)

// enrolled counts the workers with a positive share.
func enrolled(sol Solution) int {
	n := 0
	for _, sh := range sol.Shares {
		if sh.X > 0 {
			n++
		}
	}
	return n
}

// mem returns the smallest memory giving exactly µ under the overlapped
// layout (µ² + 4µ ≤ m).
func mem(mu int) int { return mu*mu + 4*mu }

// table1 is the platform of Table 1 of the paper: the bandwidth-centric
// solution saturates neither worker's compute but P1 would need to hoard
// far more operand blocks than its memory holds.
func table1() *platform.Platform {
	return platform.New(
		platform.Worker{C: 1, W: 2, M: mem(2)},
		platform.Worker{C: 20, W: 40, M: mem(2)},
	)
}

func TestTable1BothEnrolled(t *testing.T) {
	sol, err := Solve(table1())
	if err != nil {
		t.Fatal(err)
	}
	// 2c/(µw): P1: 2/(2·2) = 0.5; P2: 40/(2·40) = 0.5 — both fit exactly.
	if enrolled(sol) != 2 {
		t.Fatalf("enrolled %d, want 2", enrolled(sol))
	}
	if math.Abs(sol.PortUsed-1.0) > 1e-12 {
		t.Fatalf("port used %v, want exactly 1", sol.PortUsed)
	}
	want := 1.0/2 + 1.0/40
	if math.Abs(sol.Throughput-want) > 1e-12 {
		t.Fatalf("throughput %v, want %v", sol.Throughput, want)
	}
}

func TestTable1Infeasible(t *testing.T) {
	pl := table1()
	sol, err := Solve(pl)
	if err != nil {
		t.Fatal(err)
	}
	if Feasible(pl, sol) {
		t.Fatal("Table 1 solution reported feasible; the paper shows it is not")
	}
	// P1 must buffer ~40 operand blocks during P2's 80-time-unit burst,
	// far above its 4µ = 8 staging blocks.
	if d := BufferDemand(pl, sol, 0); d < 20 {
		t.Fatalf("P1 buffer demand %v, want ≥ 20 blocks", d)
	}
}

func TestTable2Throughput(t *testing.T) {
	sol, err := Solve(workload.Table2())
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: "the steady-state approach of Section 6.1 would achieve a
	// ratio of 1.39 without memory limitations."
	if math.Abs(sol.Throughput-1.39) > 0.005 {
		t.Fatalf("throughput %v, want ≈1.39", sol.Throughput)
	}
	if enrolled(sol) != 3 {
		t.Fatalf("enrolled %d, want 3 (P3 fractionally)", enrolled(sol))
	}
	// P3 is the last, fractionally enrolled worker.
	var p3 Share
	for _, sh := range sol.Shares {
		if sh.Worker == 2 {
			p3 = sh
		}
	}
	if !p3.Partial {
		t.Fatal("P3 should be fractionally enrolled")
	}
}

func TestTable2EnrollmentOrder(t *testing.T) {
	sol, err := Solve(workload.Table2())
	if err != nil {
		t.Fatal(err)
	}
	// sorted by 2c/µ: P2 (1/3) < P1 (2/3) < P3 (1)
	order := []int{1, 0, 2}
	for i, sh := range sol.Shares {
		if sh.Worker != order[i] {
			t.Fatalf("share %d is worker %d, want %d", i, sh.Worker, order[i])
		}
	}
}

func TestSolveSkipsMemorylessWorkers(t *testing.T) {
	pl := platform.New(
		platform.Worker{C: 1, W: 1, M: 4}, // µ = 0: unusable
		platform.Worker{C: 1, W: 1, M: mem(2)},
	)
	sol, err := Solve(pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range sol.Shares {
		if sh.Worker == 0 && sh.X > 0 {
			t.Fatal("memoryless worker received a share")
		}
	}
}

func TestSolveErrorsWhenNoWorkerUsable(t *testing.T) {
	pl := platform.New(platform.Worker{C: 1, W: 1, M: 4})
	if _, err := Solve(pl); err == nil {
		t.Fatal("expected error for µ=0 everywhere")
	}
}

func TestSolveRejectsInvalidPlatform(t *testing.T) {
	if _, err := Solve(platform.New()); err == nil {
		t.Fatal("empty platform accepted")
	}
}

func TestFastLinkSaturatesPort(t *testing.T) {
	// One worker with compute far slower than its link: port underused.
	pl := platform.New(platform.Worker{C: 0.001, W: 10, M: mem(4)})
	sol, err := Solve(pl)
	if err != nil {
		t.Fatal(err)
	}
	if sol.PortUsed > 0.01 {
		t.Fatalf("port used %v, want ≈0", sol.PortUsed)
	}
	if math.Abs(sol.Throughput-0.1) > 1e-12 {
		t.Fatalf("throughput %v, want 0.1", sol.Throughput)
	}
}

// Properties: port never oversubscribed, throughput bounded by both the
// aggregate compute rate and the port rate, fractional enrollment only on
// the last enrolled worker.
func TestQuickSolveInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(pRaw uint8) bool {
		p := int(pRaw%6) + 1
		pl := platform.RandomHeterogeneous(rng, p, 1, 1, 60, 5, 5, 3)
		sol, err := Solve(pl)
		if err != nil {
			return true // all-µ0 platforms are allowed to error
		}
		if sol.PortUsed > 1+1e-9 {
			return false
		}
		var computeCap float64
		for i, wk := range pl.Workers {
			if platform.MuOverlap(wk.M) >= 1 {
				computeCap += 1 / wk.W
			}
			_ = i
		}
		if sol.Throughput > computeCap+1e-9 {
			return false
		}
		partials := 0
		for _, sh := range sol.Shares {
			if sh.Partial {
				partials++
			}
			if sh.X < 0 || sh.Y < 0 {
				return false
			}
		}
		return partials <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
