package stats

import (
	"math"
	"testing"
	"time"
)

func TestEWMASeedAndDecay(t *testing.T) {
	var e EWMA
	if e.Value() != 0 || e.Samples() != 0 {
		t.Fatalf("fresh EWMA not zero: %v/%d", e.Value(), e.Samples())
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation must seed: got %v", e.Value())
	}
	e.Observe(50)
	if got := e.Value(); math.Abs(got-87.5) > 1e-12 {
		t.Fatalf("alpha=0.25 blend: got %v want 87.5", got)
	}
	if e.Samples() != 2 {
		t.Fatalf("samples = %d", e.Samples())
	}
}

func TestEstimatorRates(t *testing.T) {
	est := NewEstimator()
	est.ObserveCompute("w1", 1, 1000, time.Second)
	est.ObserveTransfer("w1", 1, 1<<20, time.Second)
	p, ok := est.Profile("w1")
	if !ok {
		t.Fatal("profile missing")
	}
	if math.Abs(p.UpdatesPerSec-1000) > 1e-9 {
		t.Fatalf("speed = %v", p.UpdatesPerSec)
	}
	if math.Abs(p.BytesPerSec-float64(1<<20)) > 1e-3 {
		t.Fatalf("bw = %v", p.BytesPerSec)
	}
	if p.ComputeSamples != 1 || p.CommSamples != 1 {
		t.Fatalf("samples %d/%d", p.ComputeSamples, p.CommSamples)
	}
}

// TestEstimatorEpochPinning pins the reconnect semantics: samples from a
// stale incarnation are dropped, a newer incarnation's samples are
// adopted while the learned EWMA state survives the reconnect.
func TestEstimatorEpochPinning(t *testing.T) {
	est := NewEstimator()
	est.ObserveCompute("w1", 5, 1000, time.Second)

	// A stale session (epoch 3 < 5) reporting garbage must be ignored.
	est.ObserveCompute("w1", 3, 1, time.Second)
	p, _ := est.Profile("w1")
	if p.UpdatesPerSec != 1000 || p.ComputeSamples != 1 {
		t.Fatalf("stale epoch polluted the estimate: %+v", p)
	}
	if p.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", p.Epoch)
	}

	// A reconnect (epoch 7) folds in normally — profile survives, the
	// new sample blends rather than restarting cold.
	est.ObserveCompute("w1", 7, 2000, time.Second)
	p, _ = est.Profile("w1")
	if p.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", p.Epoch)
	}
	if math.Abs(p.UpdatesPerSec-1250) > 1e-9 {
		t.Fatalf("reconnect did not preserve EWMA state: %v", p.UpdatesPerSec)
	}

	// Epoch 0 skips the pin entirely (simulator / single-session use).
	est.ObserveCompute("w2", 0, 100, time.Second)
	est.ObserveCompute("w2", 0, 100, time.Second)
	p, _ = est.Profile("w2")
	if p.ComputeSamples != 2 {
		t.Fatalf("unpinned samples dropped: %+v", p)
	}
}

func TestEstimatorRejectsGarbage(t *testing.T) {
	est := NewEstimator()
	est.ObserveCompute("w", 1, 0, time.Second)
	est.ObserveCompute("w", 1, -5, time.Second)
	est.ObserveCompute("w", 1, 10, 0)
	est.ObserveTransfer("w", 1, 0, time.Second)
	if p, ok := est.Profile("w"); ok && (p.ComputeSamples > 0 || p.CommSamples > 0) {
		t.Fatalf("garbage samples accepted: %+v", p)
	}
}
