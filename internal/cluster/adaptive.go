package cluster

import "repro/internal/sim"

// AdaptiveConfig tunes the online-adaptive scheduling layer. It is the
// fleet simulator's configuration too: both decide chunk sides and
// speculation through sim.AdaptiveConfig's ChunkSide and StragglerGain.
type AdaptiveConfig = sim.AdaptiveConfig

// speculateLocked looks for an in-flight task worth duplicating onto
// the idle worker w: among the tasks StragglerGain fires on (from the
// live profiles and the task's dispatch timestamp), the one a duplicate
// saves the most time on. At most one duplicate per seq, within the
// attempt budget; the first finished copy wins and revokes the others
// (resolveSpeculationLocked). Returns the duplicate to dispatch, or nil;
// the flag reports a worthwhile duplicate that only w's memory blocks.
func (cl *Cluster) speculateLocked(w *workerState, held int) (*Task, bool) {
	ad := cl.cfg.Adaptive
	if !ad.Enabled || ad.SpeculationFactor <= 0 {
		return nil, false
	}
	my, _ := cl.est.Profile(w.id)
	now := cl.clock.Now()
	var best *Task
	var bestGain float64
	memBlocked := false
	for _, h := range cl.reg.workers {
		if h == w || h.dead {
			continue
		}
		hp, _ := cl.est.Profile(h.id)
		for _, t := range h.inflight {
			j := cl.jobs[t.Job]
			if j == nil || j.state != Running || j.specActive[t.Seq] {
				continue
			}
			// Peek the attempt budget without consuming a number.
			if j.attempts[t.Seq]+1 >= cl.cfg.MaxAttempts {
				continue
			}
			blocks := int64(t.Chunk.Blocks)
			for _, s := range t.Chunk.Steps {
				blocks += int64(s.Blocks)
			}
			q := int64(cl.taskQ(j))
			gain, ok := ad.StragglerGain(hp, my, float64(t.updates()), float64(blocks*q*q*8),
				now.Sub(t.started).Seconds())
			if !ok {
				continue
			}
			if w.mem > 0 && held+footprint(t) > w.mem {
				// A worthwhile duplicate that only memory blocks: report
				// it so the dispatcher can demand a flush of this
				// worker's resident results and retry.
				memBlocked = true
				continue
			}
			if best == nil || gain > bestGain {
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
// finishes (a session's Acked accepted the winner): every other
// in-flight copy is revoked, so the losers' later acks and flushes all
// take the stale paths — ErrStaleTask there,
// skipped ids in CommitFlush — and the committed value is written
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
