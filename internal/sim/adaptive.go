package sim

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// AdaptiveConfig tunes online-adaptive scheduling: per-worker chunk
// shaping from live speed profiles and speculative re-dispatch of
// straggling chunks. The live cluster (cluster.Config.Adaptive) and the
// fleet simulator (FleetConfig.Adaptive) take the same value and decide
// through the same two rules, ChunkSide and StragglerGain.
type AdaptiveConfig struct {
	// Enabled turns on adaptation: ChunkSide sizes each fresh chunk from
	// the asking worker's speed profile, and SpeculationFactor may arm
	// straggler re-dispatch. Off, every chunk takes its job's µ, clamped
	// by the worker's memory; the cluster carves chunks at dispatch
	// either way, while the fleet simulator's baseline pre-cuts its queue
	// at FleetConfig.Mu.
	Enabled bool
	// ChunkTarget is the wall time one adaptive chunk should take on its
	// worker: µ is chosen so µ²·T updates ≈ speed·ChunkTarget. Larger
	// targets amortize more per-chunk overhead; smaller ones bound the
	// work a loss can cost. Default 250ms.
	ChunkTarget time.Duration
	// SpeculationFactor arms straggler re-dispatch: an otherwise idle
	// worker duplicates an in-flight chunk when the holder's estimated
	// remaining time exceeds SpeculationFactor × the idle worker's full
	// ETA (StragglerGain). The first finished copy wins. 0 disables
	// speculation; values below ~1.5 speculate aggressively.
	SpeculationFactor float64
}

// ChunkSide is the µ rule: the side of a fresh chunk for a worker with
// profile p and mem blocks of advertised memory (0 = unconstrained), on
// a product of t update steps. It is jobMu, the submit-time µ, unless
// Enabled and the worker is profiled: then √(speed·ChunkTarget/t), at
// least 1. Either way the chunk plus one staging set must fit the
// worker's memory (µ² + 2µ ≤ mem); what the worker already holds is the
// caller's to check on the chunk actually cut. It returns 0 when even a
// 1×1 chunk does not fit.
func (a AdaptiveConfig) ChunkSide(p stats.Profile, t, jobMu, mem int) int {
	memMu := math.MaxInt
	if mem > 0 {
		if memMu = core.MaxChunkSide(mem, 1); memMu < 1 {
			return 0
		}
	}
	mu := jobMu
	if a.Enabled && p.UpdatesPerSec > 0 && t > 0 {
		target := a.ChunkTarget
		if target <= 0 {
			target = 250 * time.Millisecond
		}
		mu = int(math.Sqrt(p.UpdatesPerSec * target.Seconds() / float64(t)))
	}
	return min(max(mu, 1), memMu)
}

// StragglerGain is the speculation trigger for one in-flight chunk of
// updates block updates whose holder has been at it for elapsed
// seconds, seen from an idle worker. The holder's remaining time is
// updates/holder speed − elapsed; the idle worker's full ETA is
// updates/idle speed, plus transfer/bandwidth once its bandwidth is
// known (transfer is in the unit the profile's bandwidth counts). It
// fires when the holder's remaining time exceeds SpeculationFactor ×
// the idle ETA, and reports the time a duplicate would save. A holder
// about to finish never fires, nor does an unprofiled holder or idle
// worker.
func (a AdaptiveConfig) StragglerGain(holder, idle stats.Profile, updates, transfer, elapsed float64) (gain float64, ok bool) {
	if a.SpeculationFactor <= 0 || holder.UpdatesPerSec <= 0 || idle.UpdatesPerSec <= 0 {
		return 0, false
	}
	holderETA := updates/holder.UpdatesPerSec - elapsed
	if holderETA <= 0 {
		return 0, false
	}
	idleETA := updates / idle.UpdatesPerSec
	if idle.BytesPerSec > 0 {
		idleETA += transfer / idle.BytesPerSec
	}
	if holderETA <= a.SpeculationFactor*idleETA {
		return 0, false
	}
	return holderETA - idleETA, true
}
