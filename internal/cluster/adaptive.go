package cluster

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// AdaptiveConfig tunes the online-adaptive scheduling layer: per-worker
// chunk shaping from live speed/bandwidth profiles and speculative
// re-dispatch of straggling tasks.
type AdaptiveConfig struct {
	// Enabled turns on adaptive chunk shaping: matmul jobs without an
	// explicit planner keep their C grid in a lazy cutter and each
	// dispatch carves a chunk sized to the asking worker's measured
	// speed and advertised memory (falling back to the job's µ while the
	// worker is unprofiled). Off, every job is pre-cut at its global µ
	// exactly as before.
	Enabled bool
	// ChunkTarget is the wall time one adaptive chunk should take on its
	// worker: µ is chosen so µ²·T updates ≈ speed·ChunkTarget. Larger
	// targets amortize more per-chunk overhead; smaller ones bound the
	// work a loss can cost. Default 250ms.
	ChunkTarget time.Duration
	// SpeculationFactor arms straggler re-dispatch: an otherwise idle
	// worker duplicates an in-flight task when the holder's estimated
	// remaining time exceeds SpeculationFactor × the idle worker's full
	// ETA (compute + transfer). First finished copy wins; the loser's
	// late results are refused through the usual stale-task/epoch paths.
	// 0 disables speculation. Values below ~1.5 speculate aggressively.
	SpeculationFactor float64
	// MaxMu clamps the adaptive chunk side (0 = only memory and the grid
	// clamp it).
	MaxMu int
	// Alpha is the estimator's EWMA weight (default 0.25).
	Alpha float64
}

// ReportCompute is ReportComputeEpoch without an incarnation pin.
func (cl *Cluster) ReportCompute(id string, updates, elapsedNS int64) {
	cl.ReportComputeEpoch(id, 0, updates, elapsedNS)
}

// ReportComputeEpoch folds one task's worker-side compute timing into
// the worker's live speed profile. The epoch pins the sample to one
// incarnation (stale sessions are dropped by the estimator) while the
// learned profile itself survives reconnects.
func (cl *Cluster) ReportComputeEpoch(id string, epoch uint64, updates, elapsedNS int64) {
	cl.est.ObserveCompute(id, epoch, updates, time.Duration(elapsedNS))
}

// ReportWireEpoch folds one finished session's wire-byte accounting
// into the worker's lifetime totals (carried across reconnects), its
// current-incarnation counters (epoch-pinned, so a stale session's
// teardown cannot pollute the live incarnation), and the worker's live
// bandwidth profile. Sessions report exactly once, at teardown, so
// lifetime totals count every byte exactly once across reconnects.
func (cl *Cluster) ReportWireEpoch(id string, epoch uint64, bytesOut, bytesIn int64, elapsed time.Duration) {
	cl.mu.Lock()
	if w := cl.reg.workers[id]; w != nil {
		w.wireOut += bytesOut
		w.wireIn += bytesIn
		if epoch == 0 || w.epoch == epoch {
			w.sessWireOut += bytesOut
			w.sessWireIn += bytesIn
		}
	}
	cl.mu.Unlock()
	cl.est.ObserveTransfer(id, epoch, bytesOut+bytesIn, elapsed)
}

// WorkerProfile returns the live speed/bandwidth estimate for a worker;
// ok is false before any sample lands.
func (cl *Cluster) WorkerProfile(id string) (stats.Profile, bool) {
	return cl.est.Profile(id)
}

// adaptiveMuLocked picks the chunk side for a fresh cut on worker w:
// sized so the chunk takes about ChunkTarget on the worker's measured
// speed, clamped to what its free memory holds (footprint µ²+2µ at
// stage 1) and to MaxMu. An unprofiled worker gets the job's µ — the
// submit-time guess — until its first timing sample lands. Returns 0
// when even a 1×1 chunk does not fit the free memory.
func (cl *Cluster) adaptiveMuLocked(w *workerState, j *job, held int) int {
	memMu := math.MaxInt
	if w.mem > 0 {
		memMu = core.MaxChunkSide(w.mem-held, 1)
		if memMu < 1 {
			return 0
		}
	}
	mu := j.spec.Mu
	if p, ok := cl.est.Profile(w.id); ok && p.UpdatesPerSec > 0 && j.gridT > 0 {
		target := cl.cfg.Adaptive.ChunkTarget.Seconds()
		if target > 0 {
			mu = int(math.Sqrt(p.UpdatesPerSec * target / float64(j.gridT)))
		}
	}
	if mu < 1 {
		mu = 1
	}
	if mu > memMu {
		mu = memMu
	}
	if mx := cl.cfg.Adaptive.MaxMu; mx > 0 && mu > mx {
		mu = mx
	}
	return mu
}

// speculateLocked looks for an in-flight task worth duplicating onto
// the idle worker w: the holder's estimated remaining time (from its
// live profile and the task's dispatch timestamp) must exceed
// SpeculationFactor × w's full ETA including operand transfer. At most
// one duplicate per seq; the first finished copy wins and revokes the
// others (resolveSpeculationLocked). Returns the duplicate to dispatch,
// or nil.
func (cl *Cluster) speculateLocked(w *workerState, held int) (*Task, bool) {
	factor := cl.cfg.Adaptive.SpeculationFactor
	if !cl.cfg.Adaptive.Enabled || factor <= 0 {
		return nil, false
	}
	my, ok := cl.est.Profile(w.id)
	if !ok || my.UpdatesPerSec <= 0 {
		return nil, false // unprofiled workers earn speed on fresh work first
	}
	now := cl.clock.Now()
	var best *Task
	var bestGain float64
	memBlocked := false
	for _, h := range cl.reg.workers {
		if h == w || h.dead {
			continue
		}
		hp, ok := cl.est.Profile(h.id)
		if !ok || hp.UpdatesPerSec <= 0 {
			continue
		}
		for _, t := range h.inflight {
			j := cl.jobs[t.Job]
			if j == nil || j.state != Running || j.specActive[t.Seq] {
				continue
			}
			// Peek the attempt budget without consuming a number.
			if j.attempts[t.Seq]+1 >= cl.cfg.MaxAttempts {
				continue
			}
			upd := float64(t.updates())
			holderETA := upd/hp.UpdatesPerSec - now.Sub(t.started).Seconds()
			if holderETA <= 0 {
				continue // about to finish; a duplicate only wastes work
			}
			myETA := upd / my.UpdatesPerSec
			if my.BytesPerSec > 0 {
				blocks := int64(t.Chunk.Blocks)
				for _, s := range t.Chunk.Steps {
					blocks += int64(s.Blocks)
				}
				q := int64(cl.taskQ(j))
				myETA += float64(blocks*q*q*8)/my.BytesPerSec + my.LatencySec
			}
			if holderETA <= factor*myETA {
				continue
			}
			if w.mem > 0 && held+footprint(t) > w.mem {
				// A worthwhile duplicate that only memory blocks: report
				// it so the dispatcher can demand a flush of this
				// worker's resident results and retry.
				memBlocked = true
				continue
			}
			if gain := holderETA - myETA; best == nil || gain > bestGain {
				best, bestGain = t, gain
			}
		}
	}
	if best == nil {
		return nil, memBlocked
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
	w.lastAt[nt.Job] = [2]int{nt.Chunk.I0, nt.Chunk.J0}
	return &nt, false
}

// resolveSpeculationLocked runs when the first copy of a speculated seq
// finishes (Complete or AckTask accepted the winner): every other
// in-flight copy is revoked, so the losers' later completions, acks and
// flushes all take the stale paths — ErrStaleTask here, skipped ids in
// CommitFlushEpoch — and the committed value is written exactly once.
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
				if h.revoked == nil {
					h.revoked = make(map[taskKey]*Task)
				}
				h.revoked[k] = t // still streaming sets until its holder reports it
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
