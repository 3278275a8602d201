package cluster

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// AdaptiveConfig tunes online-adaptive scheduling: per-worker chunk
// shaping from live speed profiles and speculative re-dispatch of
// straggling chunks, decided by two rules, ChunkSide and StragglerGain.
// A fleet run (fleet.Config.Adaptive) hands it to the cluster it drives.
type AdaptiveConfig struct {
	// Enabled turns on adaptation: ChunkSide sizes each fresh chunk from
	// the asking worker's speed profile, and SpeculationFactor may arm
	// straggler re-dispatch. Off, every chunk takes its job's µ, clamped
	// by the worker's memory; chunks are carved at dispatch either way.
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

// speculateLocked looks for an in-flight task worth duplicating onto
// the idle worker w: among the tasks StragglerGain fires on (from the
// live profiles and the task's dispatch timestamp), the one a duplicate
// saves the most time on, equal gains going to the lowest (Job, Seq),
// then the lowest holder id, so the choice does not follow map order.
// At most one duplicate per seq, within the attempt budget and w's
// memory; the first
// finished copy wins and revokes the others (resolveSpeculationLocked).
// Returns the duplicate to dispatch, or nil.
func (cl *Cluster) speculateLocked(w *workerState, held int) *Task {
	ad := cl.cfg.Adaptive
	if !ad.Enabled || ad.SpeculationFactor <= 0 {
		return nil
	}
	my, _ := cl.est.Profile(w.id)
	now := cl.clock.Now()
	var best *Task
	var bestGain float64
	var bestHolder string
	for _, h := range cl.reg.workers {
		if h == w || h.dead || len(h.inflight) == 0 {
			continue
		}
		hp, _ := cl.est.Profile(h.id)
		for _, t := range h.inflight {
			j := cl.jobs[t.Job]
			if j == nil || j.state != Running {
				continue
			}
			q := int64(j.q)
			blocks := int64(t.Rows*t.Cols + t.Steps*(t.Rows+t.Cols)) // C tile and update sets
			gain, ok := ad.StragglerGain(hp, my, float64(t.updates()), float64(blocks*q*q*8),
				now.Sub(t.started).Seconds())
			// At most one duplicate per seq, and one that fits w; the
			// attempt budget is peeked without consuming a number.
			if !ok || j.specActive[t.Seq] || j.attempts[t.Seq]+1 >= cl.cfg.MaxAttempts ||
				w.mem > 0 && held+footprint(t.Rows, t.Cols) > w.mem {
				continue
			}
			if best == nil || gain > bestGain || gain == bestGain && specTieBefore(t, h.id, best, bestHolder) {
				best, bestGain, bestHolder = t, gain, h.id
			}
		}
	}
	if best == nil {
		return nil
	}
	j := cl.jobs[best.Job]
	nt := *best
	nt.Attempt = j.nextAttempt(best.Seq)
	nt.spec = true
	if j.specActive == nil {
		j.specActive = make(map[int]bool)
	}
	j.specActive[best.Seq] = true
	j.inflight++
	cl.specLaunched++
	if w.lastAt == nil {
		w.lastAt = make(map[JobID][2]int)
	}
	w.lastAt[nt.Job] = [2]int{nt.I0, nt.J0}
	return &nt
}

// specTieBefore orders two speculation candidates of equal gain: the
// lower (Job, Seq) first, then the lower holder id.
func specTieBefore(t *Task, holder string, best *Task, bestHolder string) bool {
	if t.Job != best.Job {
		return t.Job < best.Job
	}
	if t.Seq != best.Seq {
		return t.Seq < best.Seq
	}
	return holder < bestHolder
}

// resolveSpeculationLocked runs when the first copy of a speculated seq
// commits (a session's Commit accepted the winner): every other
// in-flight copy is revoked, so the losers' later Results take the
// stale path — ErrStaleTask — and the committed value is written
// exactly once. A loser's session still holds its copy, and so the
// job's operands, until it reports it.
func (cl *Cluster) resolveSpeculationLocked(j *job, winner *Task) {
	if !j.specActive[winner.Seq] {
		return
	}
	delete(j.specActive, winner.Seq)
	for _, h := range cl.reg.workers {
		if h.dead {
			continue
		}
		for k, t := range h.inflight {
			if t.Job == winner.Job && t.Seq == winner.Seq && t != winner {
				delete(h.inflight, k)
				j.inflight--
			}
		}
	}
	// A win is the duplicate finishing first — including when the
	// original holder died mid-race and its copy is already gone.
	if winner.spec {
		cl.specWon++
	}
}

// otherCopyInflightLocked reports whether a live worker still holds a
// different in-flight copy of the task's seq — the case where a lost
// copy need not be requeued because its duplicate carries the work.
func (cl *Cluster) otherCopyInflightLocked(t *Task) bool {
	for _, h := range cl.reg.workers {
		if h.dead {
			continue
		}
		for _, o := range h.inflight {
			if o.Job == t.Job && o.Seq == t.Seq && o != t {
				return true
			}
		}
	}
	return false
}
