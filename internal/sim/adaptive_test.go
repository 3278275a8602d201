package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

func speed(updatesPerSec float64) stats.Profile {
	return stats.Profile{UpdatesPerSec: updatesPerSec}
}

// TestChunkSide pins the µ rule both the cluster and the fleet
// simulator call: the job's µ while off or unprofiled, √(speed·target/T)
// once enabled and profiled, clamped to what the advertised memory holds
// for the chunk plus one staging set (µ² + 2µ ≤ mem), and 0 when not
// even 1×1 fits.
func TestChunkSide(t *testing.T) {
	a := AdaptiveConfig{Enabled: true, ChunkTarget: time.Second}
	cases := []struct {
		name      string
		cfg       AdaptiveConfig
		p         stats.Profile
		t, jobMu  int
		mem, want int
	}{
		{name: "unprofiled gets the job µ", cfg: a, t: 4, jobMu: 3, mem: 64, want: 3},
		{name: "unprofiled job µ is memory-clamped", cfg: a, t: 4, jobMu: 9, mem: 24, want: 4},
		{name: "off ignores the profile", cfg: AdaptiveConfig{ChunkTarget: time.Second}, p: speed(100), t: 4, jobMu: 2, mem: 100, want: 2},
		{name: "off job µ is memory-clamped", p: speed(100), t: 4, jobMu: 8, mem: 10, want: 2},
		{name: "sqrt rule", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 100, want: 5},
		{name: "sqrt rule truncates", cfg: a, p: speed(99), t: 4, jobMu: 2, mem: 100, want: 4},
		{name: "slow worker gets at least 1", cfg: a, p: speed(1), t: 4, jobMu: 2, mem: 100, want: 1},
		{name: "default target is 250ms", cfg: AdaptiveConfig{Enabled: true}, p: speed(400), t: 4, jobMu: 2, want: 5},
		{name: "memory clamps a fast worker", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 8, want: 2},
		{name: "1x1 fits exactly", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 3, want: 1},
		{name: "1x1 does not fit", cfg: a, p: speed(100), t: 4, jobMu: 2, mem: 2, want: 0},
		{name: "memory 0 is unconstrained", cfg: a, p: speed(1e6), t: 4, jobMu: 2, want: 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.ChunkSide(tc.p, tc.t, tc.jobMu, tc.mem); got != tc.want {
				t.Fatalf("ChunkSide = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStragglerGain pins the speculation trigger: the holder's remaining
// time must exceed factor × the idle worker's full ETA, the transfer
// term counts only once the idle worker's bandwidth is known, and a
// holder at or past its own ETA never fires.
func TestStragglerGain(t *testing.T) {
	a := AdaptiveConfig{SpeculationFactor: 2}
	idle := speed(100)
	cases := []struct {
		name                       string
		cfg                        AdaptiveConfig
		holder, idle               stats.Profile
		updates, transfer, elapsed float64
		want                       float64 // gain; 0 = must not fire
	}{
		// holder 100/10 = 10s left; idle 100/100 = 1s.
		{name: "slow holder fires", cfg: a, holder: speed(10), idle: idle, updates: 100, want: 9},
		{name: "elapsed counts against the holder", cfg: a, holder: speed(10), idle: idle, updates: 100, elapsed: 4, want: 5},
		{name: "near-done holder never fires", cfg: a, holder: speed(10), idle: speed(1e9), updates: 100, elapsed: 10},
		{name: "overdue holder never fires", cfg: a, holder: speed(10), idle: speed(1e9), updates: 100, elapsed: 30},
		// holder 2s left vs 2 × 1s: not strictly beyond the factor.
		{name: "factor boundary does not fire", cfg: a, holder: speed(50), idle: idle, updates: 100},
		{name: "just past the factor fires", cfg: a, holder: speed(49), idle: idle, updates: 100, want: 100.0/49 - 1},
		{name: "transfer ignored without bandwidth", cfg: a, holder: speed(10), idle: idle, updates: 100, transfer: 1e6, want: 9},
		// idle ETA 1s + 800/100 = 9s: 10s left is below 2 × 9s.
		{name: "transfer counts with bandwidth", cfg: a, holder: speed(10),
			idle: stats.Profile{UpdatesPerSec: 100, BytesPerSec: 100}, updates: 100, transfer: 800},
		{name: "transfer shrinks the gain", cfg: a, holder: speed(10),
			idle: stats.Profile{UpdatesPerSec: 100, BytesPerSec: 100}, updates: 100, transfer: 200, want: 7},
		{name: "unprofiled holder never fires", cfg: a, idle: idle, updates: 100},
		{name: "unprofiled idle worker never fires", cfg: a, holder: speed(10), updates: 100},
		{name: "factor 0 is off", holder: speed(10), idle: idle, updates: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gain, ok := tc.cfg.StragglerGain(tc.holder, tc.idle, tc.updates, tc.transfer, tc.elapsed)
			if ok != (tc.want > 0) || math.Abs(gain-tc.want) > 1e-12 {
				t.Fatalf("StragglerGain = %v, %v; want %v, %v", gain, ok, tc.want, tc.want > 0)
			}
		})
	}
}
