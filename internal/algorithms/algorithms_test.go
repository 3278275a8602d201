package algorithms

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

// utk builds the §8.1 platform: 8 workers, 100 Mb/s links, 3.2 GHz Xeons,
// with the given memory budget.
func utk(memMB int) *platform.Platform {
	c, w := platform.UTKCalibration().BlockCosts(80)
	return platform.Homogeneous(8, c, w, platform.MemoryBlocks(int64(memMB)<<20, 80))
}

// small is a fast problem for unit tests (q=80 keeps calibration honest
// but block counts stay tiny).
var small = core.Problem{R: 12, S: 24, T: 8, Q: 80}

func TestAllAlgorithmsConserveWork(t *testing.T) {
	pl := utk(512)
	for _, name := range All() {
		r, err := Run(name, pl, small, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Updates != small.Updates() {
			t.Fatalf("%s: %d updates, want %d", name, r.Updates, small.Updates())
		}
		if r.Makespan <= 0 {
			t.Fatalf("%s: makespan %v", name, r.Makespan)
		}
		if r.Enrolled < 1 || r.Enrolled > pl.P() {
			t.Fatalf("%s: enrolled %d", name, r.Enrolled)
		}
	}
}

func TestHoLMEnrollment512MB(t *testing.T) {
	// Figure 13: with 512 MB HoLM enrolls 4 of the 8 workers.
	pl := utk(512)
	pr := core.MustProblem(16000, 16000, 64000, 80)
	r, err := Run(HoLM, pl, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Enrolled != 4 {
		t.Fatalf("HoLM enrolled %d, want 4", r.Enrolled)
	}
}

func TestHoLMEnrollment132MB(t *testing.T) {
	// Figure 13: with 132 MB HoLM enrolls 2 workers.
	pl := utk(132)
	pr := core.MustProblem(16000, 16000, 64000, 80)
	r, err := Run(HoLM, pl, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Enrolled != 2 {
		t.Fatalf("HoLM enrolled %d, want 2", r.Enrolled)
	}
}

func TestPaperOrdering(t *testing.T) {
	// §8.4 on the Figure 10 shapes: "HoLM, ORROML, ODDOML, and DDOML are
	// the best algorithms and have similar performance. Only OMMOML needs
	// more time..." and all OML algorithms beat BMM.
	pl := utk(512)
	pr := core.MustProblem(8000, 8000, 64000, 80)
	ms := map[Name]float64{}
	enrolled := map[Name]int{}
	for _, name := range All() {
		r, err := Run(name, pl, pr, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms[name] = r.Makespan
		enrolled[name] = r.Enrolled
	}
	// the four good ones within 5% of each other
	best := ms[HoLM]
	for _, n := range []Name{ORROML, ODDOML, DDOML} {
		if ms[n] < best {
			best = ms[n]
		}
	}
	for _, n := range []Name{HoLM, ORROML, ODDOML, DDOML} {
		if ms[n] > best*1.05 {
			t.Fatalf("%s at %v is not within 5%% of the best OML %v", n, ms[n], best)
		}
	}
	// OMMOML is slower
	if !(ms[OMMOML] > best*1.1) {
		t.Fatalf("OMMOML (%v) should be noticeably slower than %v", ms[OMMOML], best)
	}
	// BMM is clearly worse than the optimized-layout algorithms
	if !(ms[BMM] > best*1.25) {
		t.Fatalf("BMM (%v) should trail the optimized layout (%v)", ms[BMM], best)
	}
	// HoLM spares resources: fewer workers than the round-robin variants
	if !(enrolled[HoLM] < enrolled[ORROML]) {
		t.Fatalf("HoLM enrolled %d, ORROML %d — resource selection missing",
			enrolled[HoLM], enrolled[ORROML])
	}
	// OMMOML's min-min estimation enrolls only a couple of workers
	if enrolled[OMMOML] > 3 {
		t.Fatalf("OMMOML enrolled %d workers, paper observes ~2", enrolled[OMMOML])
	}
}

func TestMemoryMonotonicity(t *testing.T) {
	// Figure 13: performance improves as memory grows, for every
	// algorithm.
	pr := core.MustProblem(16000, 16000, 64000, 80)
	for _, name := range []Name{HoLM, ORROML, ODDOML, DDOML, BMM} {
		prev := 0.0
		for i, mem := range []int{512, 256, 132} {
			r, err := Run(name, utk(mem), pr, Options{})
			if err != nil {
				t.Fatalf("%s at %dMB: %v", name, mem, err)
			}
			if i > 0 && r.Makespan < prev {
				t.Fatalf("%s: makespan at %dMB (%v) below larger-memory run (%v)",
					name, mem, r.Makespan, prev)
			}
			prev = r.Makespan
		}
	}
}

func TestCommVolumeComparison(t *testing.T) {
	// The optimized layout moves strictly fewer blocks than Toledo's:
	// that is the whole point of §4.
	pl := utk(512)
	pr := core.MustProblem(8000, 8000, 64000, 80)
	oml, err := Run(HoLM, pl, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bmm, err := Run(BMM, pl, pr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(oml.Blocks < bmm.Blocks) {
		t.Fatalf("OML blocks %d not below BMM blocks %d", oml.Blocks, bmm.Blocks)
	}
}

func TestRunRejectsHeterogeneous(t *testing.T) {
	pl := platform.New(
		platform.Worker{C: 1, W: 1, M: 100},
		platform.Worker{C: 2, W: 1, M: 100},
	)
	if _, err := Run(HoLM, pl, small, Options{}); err == nil {
		t.Fatal("heterogeneous platform accepted")
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := Run(Name("nope"), utk(512), small, Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunRejectsTinyMemory(t *testing.T) {
	// m = 4: the overlapped layout needs µ²+4µ ≤ m ⇒ µ = 0, and OBMM
	// needs m ≥ 5; DDOML (µ²+2µ ≤ 4 ⇒ µ = 1) and BMM (⌊√(4/3)⌋ = 1)
	// legitimately still run — their layouts reserve fewer buffers.
	pl := platform.Homogeneous(2, 1, 1, 4)
	for _, name := range []Name{HoLM, ORROML, OMMOML, ODDOML, OBMM} {
		if _, err := Run(name, pl, small, Options{}); err == nil {
			t.Fatalf("%s accepted m=4", name)
		}
	}
	for _, name := range []Name{DDOML, BMM} {
		if _, err := Run(name, pl, small, Options{}); err != nil {
			t.Fatalf("%s rejected m=4, but its layout fits: %v", name, err)
		}
	}
}

func TestRunWithTrace(t *testing.T) {
	tr := &trace.Trace{}
	r, err := Run(HoLM, utk(512), small, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan() <= 0 || tr.Makespan() > r.Makespan+1e-9 {
		t.Fatalf("trace makespan %v vs result %v", tr.Makespan(), r.Makespan)
	}
}

func TestRunAllSorted(t *testing.T) {
	rs, err := RunAll(utk(512), small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 7 {
		t.Fatalf("%d results", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Makespan < rs[i-1].Makespan {
			t.Fatal("results not sorted")
		}
	}
}

func TestToledoChunksCoverInnerDim(t *testing.T) {
	pr := core.Problem{R: 5, S: 4, T: 7, Q: 8}
	pool := toledoChunks(pr, 3)
	var updates int64
	for _, ch := range pool {
		for _, st := range ch.Steps {
			updates += st.Updates
		}
	}
	if updates != pr.Updates() {
		t.Fatalf("Toledo chunks cover %d updates, want %d", updates, pr.Updates())
	}
}

// Property: all algorithms conserve work on random small problems and
// random (sufficient) memory.
func TestQuickAllAlgorithms(t *testing.T) {
	f := func(rRaw, sRaw, tRaw, memRaw uint8) bool {
		pr := core.Problem{
			R: int(rRaw%10) + 1, S: int(sRaw%10) + 1, T: int(tRaw%6) + 1, Q: 80,
		}
		mem := 64 + int(memRaw)*16 // ≥ 64 blocks so every layout has µ/ν ≥ 1
		c, w := platform.UTKCalibration().BlockCosts(80)
		pl := platform.Homogeneous(4, c, w, mem)
		for _, name := range All() {
			r, err := Run(name, pl, pr, Options{})
			if err != nil {
				return false
			}
			if r.Updates != pr.Updates() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOMMOMLPlanConservation replays the static min-min plan on ragged
// shapes and checks it never loses or duplicates work.
func TestOMMOMLPlanConservation(t *testing.T) {
	for _, pr := range []core.Problem{
		{R: 7, S: 5, T: 3, Q: 80},
		{R: 1, S: 9, T: 2, Q: 80},
		{R: 13, S: 1, T: 1, Q: 80},
	} {
		pl := utk(512)
		r, err := Run(OMMOML, pl, pr, Options{})
		if err != nil {
			t.Fatalf("%+v: %v", pr, err)
		}
		if r.Updates != pr.Updates() {
			t.Fatalf("%+v: %d updates, want %d", pr, r.Updates, pr.Updates())
		}
	}
}
