package sim

import (
	"testing"

	"repro/internal/trace"
)

// TestFleetAdaptiveBeatsBaselineWithinLPBound pins the acceptance
// criterion: on the 100-worker heterogeneous fleet with churn, adaptive
// scheduling lands within 1.5× the LP lower bound and at least 25%
// ahead of the FIFO + fixed-µ baseline.
func TestFleetAdaptiveBeatsBaselineWithinLPBound(t *testing.T) {
	base, err := RunFleet(ChurnFleet(100, 120, 64, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChurnFleet(100, 120, 64, true)
	adpt, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

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

// TestFleetDeterministic pins that identical configs replay identically
// — the property every regression bisect on this simulator relies on.
func TestFleetDeterministic(t *testing.T) {
	a, err := RunFleet(ChurnFleet(100, 120, 64, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(ChurnFleet(100, 120, 64, true))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestFleetChurn200Race is the CI smoke scenario: 200 workers with
// churn under the race detector (the estimator is the only shared
// state; a data race here means the scheduler loop leaked one).
func TestFleetChurn200Race(t *testing.T) {
	res, err := RunFleet(ChurnFleet(200, 80, 32, true))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(80) * 80 * 32; res.Updates != want {
		t.Fatalf("committed %d updates, want %d", res.Updates, want)
	}
}

// TestFleet500WorkersWithJoins stretches to the upper end of the scale
// requirement, with a third of the fleet joining mid-job.
func TestFleet500WorkersWithJoins(t *testing.T) {
	cfg := ChurnFleet(500, 100, 32, true)
	for i := range cfg.Workers {
		if i%3 == 2 && i > 100 {
			cfg.Workers[i].JoinAt = 1.5 // late-joining fast workers
		}
	}
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100) * 100 * 32; res.Updates != want {
		t.Fatalf("committed %d updates, want %d", res.Updates, want)
	}
}

// TestFleetTraceRecordsSpeculation pins the Gantt artifact contract: a
// traced adaptive run emits per-worker comm and compute spans, and
// speculative duplicates appear as Spec spans.
func TestFleetTraceRecordsSpeculation(t *testing.T) {
	tr := &trace.Trace{}
	cfg := ChurnFleet(12, 24, 32, true)
	cfg.Events = []FleetEvent{{At: 1, Worker: 2, Kind: FleetSlowdown, Factor: 0.02}}
	cfg.Trace = tr
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
