package fleet

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/trace"
)

// runExact runs a fleet and fails unless the committed C is
// bit-identical to matrix.MulNaive over the run's operands.
func runExact(t *testing.T, cfg Config) Result {
	t.Helper()
	res, spec, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewDense(cfg.R, cfg.S)
	matrix.MulNaive(want, spec.A.Assemble(), spec.B.Assemble())
	if !spec.C.Assemble().Equal(want, 0) {
		t.Fatal("committed C is not bit-identical to MulNaive")
	}
	return res
}

// TestFleetAdaptiveBeatsBaselineWithinLPBound pins the acceptance
// criterion: on the 100-worker heterogeneous fleet with churn, adaptive
// scheduling lands within 1.5× the LP lower bound and at least 25%
// ahead of the FIFO + fixed-µ baseline.
func TestFleetAdaptiveBeatsBaselineWithinLPBound(t *testing.T) {
	base := runExact(t, Churn(100, 120, 64, false))
	cfg := Churn(100, 120, 64, true)
	adpt := runExact(t, cfg)

	total := int64(cfg.R) * int64(cfg.S) * int64(cfg.T)
	lb := cfg.LowerBound()
	t.Logf("LP bound %.2fs, adaptive %.2fs (%.2fx), baseline %.2fs (%.2fx)",
		lb, adpt.Makespan, adpt.Makespan/lb, base.Makespan, base.Makespan/lb)
	t.Logf("adaptive: %d chunks, %d requeues, %d speculations (%d wins), %d wasted updates",
		adpt.Chunks, adpt.Requeues, adpt.Speculations, adpt.SpecWins, adpt.WastedUpdates)

	if adpt.Makespan < lb {
		t.Fatalf("adaptive makespan %.3f beats the LP lower bound %.3f: the bound is broken", adpt.Makespan, lb)
	}
	if base.Makespan < lb {
		t.Fatalf("baseline makespan %.3f beats the LP lower bound %.3f: the bound is broken", base.Makespan, lb)
	}
	if adpt.Makespan > 1.5*lb {
		t.Fatalf("adaptive makespan %.3f exceeds 1.5× LP bound %.3f", adpt.Makespan, lb)
	}
	if adpt.Makespan > 0.75*base.Makespan {
		t.Fatalf("adaptive %.3f not ≥25%% better than baseline %.3f", adpt.Makespan, base.Makespan)
	}
	if adpt.Updates != total || base.Updates != total {
		t.Fatalf("committed updates %d/%d, want %d for both", adpt.Updates, base.Updates, total)
	}
	if adpt.Speculations == 0 || adpt.SpecWins == 0 {
		t.Fatalf("speculation never engaged (%d launched, %d won)", adpt.Speculations, adpt.SpecWins)
	}
	if adpt.Requeues == 0 {
		t.Fatal("leave churn produced no requeues")
	}
}

// TestFleetOneLeaveRecovers is the recovery run BenchmarkClusterRecoverySim
// prices: four UTK-calibrated workers, one of which leaves at half the
// clean makespan. The scheduler requeues exactly the chunk the leaver
// was computing, the survivors commit the clean run's chunks, and the
// run ends later than the clean one with C bit-exact.
func TestFleetOneLeaveRecovers(t *testing.T) {
	c, w := platform.UTKCalibration().BlockCosts(80)
	wk := Worker{Speed: 1 / w, Bandwidth: 1 / c, Mem: platform.MemoryBlocks(512<<20, 80)}
	cfg := Config{Workers: []Worker{wk, wk, wk, wk}, R: 32, S: 64, T: 32, Mu: 8}
	clean := runExact(t, cfg)
	cfg.Events = []Event{{At: clean.Makespan / 2, Worker: 1, Kind: Leave}}
	failed := runExact(t, cfg)
	if failed.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1 (the leaver's chunk)", failed.Requeues)
	}
	if failed.Chunks != clean.Chunks {
		t.Fatalf("chunks = %d, want the clean run's %d", failed.Chunks, clean.Chunks)
	}
	if failed.Makespan <= clean.Makespan {
		t.Fatalf("failed makespan %g not above clean %g", failed.Makespan, clean.Makespan)
	}
}

// TestFleetDeterministic pins that identical configs replay identically
// — the property every regression bisect on a fleet run relies on.
func TestFleetDeterministic(t *testing.T) {
	a, err := Run(Churn(100, 120, 64, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Churn(100, 120, 64, true))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestFleetChurn200Race is the CI smoke scenario: 200 workers with
// churn under the race detector (the driver is one goroutine; a data
// race here means the scheduler started one of its own).
func TestFleetChurn200Race(t *testing.T) {
	res := runExact(t, Churn(200, 80, 32, true))
	if want := int64(80) * 80 * 32; res.Updates != want {
		t.Fatalf("committed %d updates, want %d", res.Updates, want)
	}
}

// TestFleet500WorkersWithJoins stretches to the upper end of the scale
// requirement, with a third of the fleet joining mid-job. It takes
// seconds, and over half a minute under the race detector, so -short
// skips it; TestFleetChurn200Race is the race smoke test of the fleet.
func TestFleet500WorkersWithJoins(t *testing.T) {
	if testing.Short() {
		t.Skip("500-worker fleet; TestFleetChurn200Race covers the race smoke")
	}
	cfg := Churn(500, 100, 32, true)
	for i := range cfg.Workers {
		if i%3 == 2 && i > 100 {
			cfg.Workers[i].JoinAt = 1.5 // late-joining fast workers
		}
	}
	res := runExact(t, cfg)
	if want := int64(100) * 100 * 32; res.Updates != want {
		t.Fatalf("committed %d updates, want %d", res.Updates, want)
	}
}

// TestFleetTraceRecordsSpeculation pins the Gantt artifact contract: a
// traced adaptive run emits per-worker comm and compute spans, and
// speculative duplicates appear as Spec spans.
func TestFleetTraceRecordsSpeculation(t *testing.T) {
	tr := &trace.Trace{}
	cfg := Churn(12, 24, 32, true)
	cfg.Events = []Event{{At: 1, Worker: 2, Kind: Slowdown, Factor: 0.02}}
	cfg.Trace = tr
	res := runExact(t, cfg)
	if res.Speculations == 0 {
		t.Fatal("scenario produced no speculation; the trace cannot cover Spec spans")
	}
	var comm, comp, spec int
	for _, s := range tr.Spans {
		switch s.Kind {
		case trace.Comm:
			comm++
		case trace.Compute:
			comp++
		case trace.Spec:
			spec++
		}
	}
	if comm == 0 || comp == 0 || spec == 0 {
		t.Fatalf("trace spans comm=%d compute=%d spec=%d; want all three phases", comm, comp, spec)
	}
	if svg := tr.SVG(trace.SVGOptions{}); len(svg) < 100 {
		t.Fatalf("SVG render suspiciously small: %d bytes", len(svg))
	}
}

// TestFleetRefusals pins every config Run refuses, and that a
// fleet whose every worker left ends in an error instead of a hang.
func TestFleetRefusals(t *testing.T) {
	edit := func(f func(*Config)) Config {
		cfg := Churn(3, 6, 4, true)
		f(&cfg)
		return cfg
	}
	for name, cfg := range map[string]Config{
		"no workers":      edit(func(c *Config) { c.Workers = nil }),
		"bad problem":     edit(func(c *Config) { c.S = 0 }),
		"bad µ":           edit(func(c *Config) { c.Mu = 0 }),
		"zero speed":      edit(func(c *Config) { c.Workers[1].Speed = 0 }),
		"negative link":   edit(func(c *Config) { c.Workers[2].Bandwidth = -1 }),
		"event past end":  edit(func(c *Config) { c.Events = []Event{{At: 1, Worker: 3}} }),
		"negative worker": edit(func(c *Config) { c.Events = []Event{{At: 1, Worker: -1}} }),
		"zero slowdown":   edit(func(c *Config) { c.Events = []Event{{At: 1, Kind: Slowdown}} }),
		"every worker gone": edit(func(c *Config) {
			c.Events = []Event{{At: 0.01, Worker: 0}, {At: 0.01, Worker: 1}, {At: 0.02, Worker: 2}}
		}),
	} {
		if res, err := Run(cfg); err == nil {
			t.Errorf("%s: ran to %+v, want an error", name, res)
		}
	}
}
