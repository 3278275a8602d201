package cluster

// Result verification and worker quarantine: the trust half of the
// durability story. The wire CRC (internal/netmw) guarantees the bytes
// a worker sent are the bytes the master decoded; this layer guarantees
// the values themselves are the update the task prescribed. Candidate C
// tiles are checked with Freivalds probes against the master-owned
// operands — O(rounds·steps·q²) per tile against the O(steps·q³)
// recompute — as each flush manifest arrives, before any of it is
// committed. A probe failure escalates to the exact
// bit-for-bit recompute (the repository's bit-exactness invariant makes
// EqualBits the honest-worker acid test); a confirmed corruption
// refuses the task, requeues it through the ordinary loss machinery,
// and strikes the worker. Workers past the strike threshold are
// quarantined: drained like a dead worker, refused on rejoin, surfaced
// in Status, and journaled so the verdict survives a master restart.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
)

// VerifyMode selects when candidate C tiles are verified before commit.
type VerifyMode int

const (
	// VerifyOff commits results unchecked (the historical behavior).
	VerifyOff VerifyMode = iota
	// VerifyAll checks every task's tiles.
	VerifyAll
	// VerifySample checks a seeded-random fraction of tasks (SampleRate).
	VerifySample
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifyAll:
		return "all"
	case VerifySample:
		return "sample"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// VerifyPolicy tunes result verification and worker quarantine.
type VerifyPolicy struct {
	Mode VerifyMode
	// SampleRate is the fraction of tasks verified under VerifySample,
	// in [0, 1]; drawn per task from a seeded stream.
	SampleRate float64
	// QuarantineStrikes is how many refused tasks quarantine a worker.
	// Default 3.
	QuarantineStrikes int
}

const (
	// verifyRounds is the number of independent Freivalds probes per
	// tile; the false-accept rate of an adversarial corruption decays as
	// 2⁻ᵏ. (Single-element corruptions are caught by every probe.) Every
	// probe runs at blas.DefaultVerifyTol.
	verifyRounds = 2
	// verifyPairs is how many fused probe pairs verifyRounds demand: the
	// kernels evaluate rounds two at a time (the second round of a pair
	// is nearly free — one extra register set on the same memory sweep),
	// so an odd count is rounded up, never down.
	verifyPairs = (verifyRounds + 1) / 2
	// verifySeed drives the probe signs and the sampling stream, so a
	// failing run is reproducible.
	verifySeed = 0x5eedf00dcafe
)

// normalized fills the policy's defaults.
func (p VerifyPolicy) normalized() VerifyPolicy {
	if p.QuarantineStrikes < 1 {
		p.QuarantineStrikes = 3
	}
	if p.SampleRate < 0 {
		p.SampleRate = 0
	}
	if p.SampleRate > 1 {
		p.SampleRate = 1
	}
	return p
}

// quarantineInfo is the cluster-level record of a quarantined worker,
// kept by id (worker records themselves are replaced on rejoin) and
// journaled so quarantine survives a master restart.
type quarantineInfo struct {
	strikes int
	reason  string
}

// verifyScratch is the cluster's reusable verification state.
type verifyScratch struct {
	v      *blas.TileVerifier
	a, b   [][]float64 // operand views into the job matrices, reused
	sample uint64      // splitmix64 state for the sampling draws
}

// verifyCache is the per-job half of the amortized matmul probe. A job's
// operands are immutable while it runs (commit writes only C), so the
// tile-independent halves of the two-sided bilinear probe
//
//	sᵀ·cand·r == sᵀ·old·r + Σ_k (sᵀ·A_k)·(B_k·r)
//
// are computed once and shared: the ±1 probe vectors (fixed per job,
// seeded from verifySeed and the job id), the left projections
// u = sᵀ·A(bi,k) — shared by every tile in block-row bi — the right
// projections y = B(k,bj)·r — shared by every tile in block-column bj —
// and the operand max-norms feeding the tolerance, scanned in the same
// sweeps. Amortized, the whole of A and B is read once per job per round
// pair; each tile check then touches only the candidate and the old
// tile, the two blocks no verifier can avoid reading. The cache is small
// (grid² probe-length vectors) and dies with the job. LU jobs never
// build one: their operand panels mutate between stages, so they stay on
// the self-contained TileVerifier.Check.
type verifyCache struct {
	s, r [][]float64          // per round: left/right ±1 probe vectors
	u    map[uint64][]float64 // key(round,bi,k) → s_roundᵀ·A(bi,k)
	y    map[uint64][]float64 // key(round,k,bj) → B(k,bj)·r_round
	nA   map[uint64]float64   // key(0,bi,k) → max|A block|
	nB   map[uint64]float64   // key(0,k,bj) → max|B block|
}

// vkey packs a cache coordinate; block grids are far below 2²⁰ a side.
func vkey(round, i, j int) uint64 {
	return uint64(round)<<40 | uint64(i)<<20 | uint64(j)
}

// vcacheLocked returns the job's verification cache, building the probe
// vectors on first use.
func (cl *Cluster) vcacheLocked(j *job, q int) *verifyCache {
	if j.vcache != nil {
		return j.vcache
	}
	rounds := 2 * verifyPairs
	vc := &verifyCache{
		s:  make([][]float64, rounds),
		r:  make([][]float64, rounds),
		u:  make(map[uint64][]float64),
		y:  make(map[uint64][]float64),
		nA: make(map[uint64]float64),
		nB: make(map[uint64]float64),
	}
	base := verifySeed ^ (uint64(j.id) * 0x9e3779b97f4a7c15)
	for round := range vc.r {
		vc.s[round] = make([]float64, q)
		vc.r[round] = make([]float64, q)
		blas.SignVec(vc.s[round], base^0x5bd1e995^uint64(round)<<48)
		blas.SignVec(vc.r[round], base^uint64(round)<<48)
	}
	j.vcache = vc
	return vc
}

// uPairLocked returns the cached left projections sᵀ·A(bi,k) for a round
// pair, building both in one sweep over the block on a miss (the block's
// max-norm is recorded from the same sweep).
func (vc *verifyCache) uPairLocked(j *job, r0, bi, k, q int) (u1, u2 []float64) {
	k1, k2 := vkey(r0+1, bi, k), vkey(r0+2, bi, k)
	u1, u2 = vc.u[k1], vc.u[k2]
	if u1 == nil || u2 == nil {
		u1, u2 = make([]float64, q), make([]float64, q)
		mx := blas.VecMat2Max(u1, u2, j.spec.A.Block(bi, k).Data, vc.s[r0], vc.s[r0+1], q)
		vc.u[k1], vc.u[k2] = u1, u2
		vc.nA[vkey(0, bi, k)] = mx
	}
	return u1, u2
}

// yPairLocked returns the cached right projections B(k,bj)·r for a round
// pair, building both in one sweep over the block on a miss.
func (vc *verifyCache) yPairLocked(j *job, r0, k, bj, q int) (y1, y2 []float64) {
	k1, k2 := vkey(r0+1, k, bj), vkey(r0+2, k, bj)
	y1, y2 = vc.y[k1], vc.y[k2]
	if y1 == nil || y2 == nil {
		y1, y2 = make([]float64, q), make([]float64, q)
		mx := blas.MatVec2Max(y1, y2, j.spec.B.Block(k, bj).Data, vc.r[r0], vc.r[r0+1], q)
		vc.y[k1], vc.y[k2] = y1, y2
		vc.nB[vkey(0, k, bj)] = mx
	}
	return y1, y2
}

// probeMatMulLocked is the amortized Freivalds probe for one matmul
// tile: pairs of two-sided rounds sᵀ·cand·r vs sᵀ·old·r + Σ_k u_k·y_k
// with every tile-independent term served from the job cache, so the
// check's memory traffic is one sweep over the candidate and one over
// the old tile. The residual limit is a scalar bound on the honest
// rounding drift: every intermediate the two evaluation orders flow
// through is bounded by q²·max-norm products, so tol·(1 + q²·(2·‖old‖ +
// (q+1)·Σ_k ‖A_k‖·‖B_k‖)) dominates the drift of any honest chain by
// orders of magnitude while staying far below the smallest value-moving
// corruption of a committed element. A non-finite limit (the candidate
// smuggled in an Inf/NaN, or the operands overflowed) refuses outright —
// Inf ≤ Inf must never read as acceptance. False probe verdicts are safe
// either way: a refusal escalates to the exact recompute before anyone
// is accused.
func (cl *Cluster) probeMatMulLocked(j *job, t *Task, bi, bj int, cand, old []float64, q int) bool {
	vc := cl.vcacheLocked(j, q)
	const tol = blas.DefaultVerifyTol
	for p := 0; p < verifyPairs; p++ {
		r0 := 2 * p
		fC1, fC2 := blas.BilinearForms2(cand, vc.s[r0], vc.r[r0], vc.s[r0+1], vc.r[r0+1], q)
		fO1, fO2, maxO := blas.BilinearForms2Max(old, vc.s[r0], vc.r[r0], vc.s[r0+1], vc.r[r0+1], q)
		ref1, ref2, mag := 0.0, 0.0, 0.0
		for k := 0; k < t.Steps; k++ {
			u1, u2 := vc.uPairLocked(j, r0, bi, k, q)
			y1, y2 := vc.yPairLocked(j, r0, k, bj, q)
			ref1 += blas.Dot(u1, y1, q)
			ref2 += blas.Dot(u2, y2, q)
			mag += vc.nA[vkey(0, bi, k)] * vc.nB[vkey(0, k, bj)]
		}
		// The candidate needs no magnitude scan of its own: an honest
		// candidate is bounded elementwise by maxO + q·mag, so 2·maxO +
		// (q+1)·mag covers both sides' intermediates, and a dishonest
		// candidate large enough to exceed the bound blows the residual.
		lim := tol * (1 + float64(q)*float64(q)*(2*maxO+float64(q+1)*mag))
		if math.IsInf(lim, 0) || math.IsNaN(lim) {
			return false
		}
		d1, d2 := fC1-fO1-ref1, fC2-fO2-ref2
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if !(d1 <= lim) || !(d2 <= lim) {
			return false
		}
	}
	return true
}

// sampleDrawLocked returns the next uniform draw in [0, 1) from the
// policy's seeded sampling stream.
func (cl *Cluster) sampleDrawLocked() float64 {
	cl.vfy.sample += 0x9e3779b97f4a7c15
	z := cl.vfy.sample
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// shouldVerifyLocked decides, per task, whether to verify its candidate
// tiles under the configured policy.
func (cl *Cluster) shouldVerifyLocked() bool {
	switch cl.verify.Mode {
	case VerifyAll:
		return true
	case VerifySample:
		return cl.sampleDrawLocked() < cl.verify.SampleRate
	default:
		return false
	}
}

// growViews resizes a reusable slice of operand views.
func growViews(s *[][]float64, n int) [][]float64 {
	if cap(*s) < n {
		*s = make([][]float64, n)
	}
	return (*s)[:n]
}

// verifyTileLocked checks one candidate value for tile (bi, bj) of job
// j against old + Σ_k A_k·B_k from the master-owned matrices (minus,
// for LU trailing updates — the session's Set shipped the panel
// negated, but the master matrix holds it plain). The "old" value is the master tile
// itself: commit is the only write, so it is exactly what the worker
// started from. A probe failure escalates to the exact recompute and
// the bit-for-bit comparison — an honest worker can never be refused,
// because every worker path is pinned to the same ascending-k FMA
// chain. The candidate is well-formed: commitFlushLocked validated the
// manifest first.
func (cl *Cluster) verifyTileLocked(j *job, t *Task, bi, bj int, cand []float64) bool {
	q := cl.taskQ(j)
	var old []float64
	var a, b [][]float64
	subtract := false
	var ok bool
	cl.verifyChecks++
	began := time.Now()
	switch j.spec.Kind {
	case MatMul:
		// Matmul probes ride the per-job cache (probe vectors, shared
		// B·r products, operand norms); the exact operand views are only
		// assembled if a probe fails and escalation needs them.
		old = j.spec.C.Block(bi, bj).Data
		ok = cl.probeMatMulLocked(j, t, bi, bj, cand, old, q)
		if !ok {
			a = growViews(&cl.vfy.a, t.Steps)
			b = growViews(&cl.vfy.b, t.Steps)
			for k := 0; k < t.Steps; k++ {
				a[k] = j.spec.A.Block(bi, k).Data
				b[k] = j.spec.B.Block(k, bj).Data
			}
		}
	case LU:
		// LU operand panels mutate between stages, so nothing is worth
		// caching: the self-contained single-step Check is already cheap.
		old = j.spec.M.Block(bi, bj).Data
		subtract = true
		a = growViews(&cl.vfy.a, 1)
		b = growViews(&cl.vfy.b, 1)
		a[0] = j.spec.M.Block(bi, t.K).Data
		b[0] = j.spec.M.Block(t.K, bj).Data
		ok = cl.vfy.v.Check(cand, old, a, b, q, subtract, verifyRounds, blas.DefaultVerifyTol)
	default:
		cl.verifyChecks--
		return true
	}
	if !ok {
		// Escalation: replay the exact update chain the worker was
		// supposed to run. For LU that chain consumed the negated panel,
		// so negate into a pooled scratch first.
		cl.tilesRecomputed++
		ref := cl.pool.Get(q * q)
		if subtract {
			neg := cl.pool.Get(q * q)
			for i, v := range a[0] {
				neg[i] = -v
			}
			blas.RecomputeTile(ref, old, [][]float64{neg}, b, q)
			cl.pool.Put(neg)
		} else {
			blas.RecomputeTile(ref, old, a, b, q)
		}
		ok = blas.EqualBits(ref, cand)
		cl.pool.Put(ref)
	}
	cl.verifyNS += time.Since(began).Nanoseconds()
	if !ok {
		cl.verifyFails++
	}
	return ok
}

// verifyFlushLocked is the verification pre-pass of commitFlushLocked:
// it runs BEFORE any tile of the manifest is committed, because commits
// are per-task atomic — verifying mid-commit could land half a task,
// and the requeued recompute would then double-apply the landed half.
// Tiles are grouped by owning task; a task with a confirmed-corrupt
// tile is refused wholesale — its tiles leave the dirty-tile tracking
// (so the commit loop skips them), the task requeues through the
// ordinary dirty-loss path, and the worker is struck. A quarantine
// fired mid-pass drains the worker entirely; the rest of the manifest
// is then already requeued, so the pass stops.
func (cl *Cluster) verifyFlushLocked(w *workerState, ids []uint64, blocks [][]float64) {
	byTask := make(map[*dirtyTask][]int)
	order := make([]*dirtyTask, 0, 4)
	for n, bid := range ids {
		if dt := w.dirtyTiles[bid]; dt != nil {
			if byTask[dt] == nil {
				order = append(order, dt)
			}
			byTask[dt] = append(byTask[dt], n)
		}
	}
	for _, dt := range order {
		if w.dead {
			return
		}
		t := dt.task
		j := cl.jobs[t.Job]
		if j == nil || j.state != Running {
			continue
		}
		if !cl.shouldVerifyLocked() {
			continue
		}
		bad := false
		for _, n := range byTask[dt] {
			_, bi, bj, _ := engine.CBlockCoords(ids[n])
			if !cl.verifyTileLocked(j, t, bi, bj, blocks[n]) {
				w.verifyFails++
				bad = true
				break
			}
		}
		if !bad {
			continue
		}
		ch := t.Chunk
		for i := 0; i < ch.Rows; i++ {
			for jj := 0; jj < ch.Cols; jj++ {
				delete(w.dirtyTiles, engine.CBlockID(uint32(t.Job), ch.I0+i, ch.J0+jj))
			}
		}
		delete(w.dirty, t.key())
		cl.requeueLocked(t, true)
		cl.strikeLocked(w, fmt.Sprintf("task %d/%d failed result verification at flush", t.Job, t.Seq))
	}
}

// strikeLocked records one refused task against the worker and
// quarantines it at the policy threshold.
func (cl *Cluster) strikeLocked(w *workerState, reason string) {
	w.strikes++
	if w.strikes >= cl.verify.QuarantineStrikes && !w.quarantined {
		cl.quarantineWorkerLocked(w, reason)
	}
}

// quarantineWorkerLocked parks a worker terminally: journaled first (so
// the verdict survives a restart), recorded by id (rejoin refusal),
// then drained exactly like a dead worker — its in-flight and dirty
// tasks requeue onto the survivors.
func (cl *Cluster) quarantineWorkerLocked(w *workerState, reason string) {
	w.quarantined = true
	cl.quarantined[w.id] = quarantineInfo{strikes: w.strikes, reason: reason}
	cl.logWorkerQuarantineLocked(w.id, w.strikes, reason)
	if !w.dead {
		cl.loseWorkerLocked(w)
	}
}

// QuarantinedWorkers lists the ids of quarantined workers with their
// strike counts and the reason of the final strike.
func (cl *Cluster) QuarantinedWorkers() []QuarantinedWorker {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]QuarantinedWorker, 0, len(cl.quarantined))
	for id, qi := range cl.quarantined {
		out = append(out, QuarantinedWorker{ID: id, Strikes: qi.strikes, Reason: qi.reason})
	}
	return out
}

// QuarantinedWorker is one quarantined worker's public record.
type QuarantinedWorker struct {
	ID      string
	Strikes int
	Reason  string
}
