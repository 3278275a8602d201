package cluster

// Result verification and worker quarantine: the trust half of the
// durability story. The wire CRC (internal/netmw) guarantees the bytes
// a worker sent are the bytes the master decoded; this layer guarantees
// the values themselves are the update the task prescribed. Candidate C
// tiles are checked with Freivalds probes against the master-owned
// operands — O(rounds·steps·q²) per tile against the O(steps·q³)
// recompute — as each task's Result arrives, before any of it is
// committed. A probe failure escalates to the exact
// bit-for-bit recompute (the repository's bit-exactness invariant makes
// EqualBits the honest-worker acid test); a confirmed corruption
// refuses the task, requeues it through the ordinary loss machinery,
// and strikes the worker. Workers past the strike threshold are
// quarantined: drained like a dead worker, refused on rejoin, surfaced
// in Status, and journaled so the verdict survives a master restart.

import (
	"fmt"
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
)

func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifyAll:
		return "all"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// VerifyPolicy tunes result verification and worker quarantine.
type VerifyPolicy struct {
	Mode VerifyMode
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
	// verifySeed drives the probe signs, so a failing run is
	// reproducible.
	verifySeed = 0x5eedf00dcafe
)

// normalized fills the policy's defaults.
func (p VerifyPolicy) normalized() VerifyPolicy {
	if p.QuarantineStrikes < 1 {
		p.QuarantineStrikes = 3
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

// verifyCache is the per-job half of the amortized tile probe. An
// operand block (opA, opB) is immutable once a task of its step exists —
// commit writes only C, and an LU stage's panels are final once it
// opens — so the tile-independent halves of the two-sided bilinear probe
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
// (grid² probe-length vectors) and dies with the job. For LU, A(bi,k)
// is stage k's negated L block and B(k,bj) its U row block: every
// coordinate names one stage's final block, so the keys never go stale.
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
func (vc *verifyCache) uPairLocked(j *job, pool *engine.BlockPool, r0, bi, k, q int) (u1, u2 []float64) {
	k1, k2 := vkey(r0+1, bi, k), vkey(r0+2, bi, k)
	u1, u2 = vc.u[k1], vc.u[k2]
	if u1 == nil || u2 == nil {
		u1, u2 = make([]float64, q), make([]float64, q)
		mx := blas.VecMat2Max(u1, u2, j.opA(bi, k, pool), vc.s[r0], vc.s[r0+1], q)
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
		mx := blas.MatVec2Max(y1, y2, j.opB(k, bj), vc.r[r0], vc.r[r0+1], q)
		vc.y[k1], vc.y[k2] = y1, y2
		vc.nB[vkey(0, k, bj)] = mx
	}
	return y1, y2
}

// probeLocked is the amortized Freivalds probe for one tile: pairs of
// two-sided rounds over the task's steps, with every tile-independent
// term served from the job cache and the verdict from
// blas.ProbeAccepts, so the check's memory traffic is one sweep over the
// candidate and one over the old tile. False probe verdicts are safe
// either way: a refusal escalates to the exact recompute before anyone
// is accused.
func (cl *Cluster) probeLocked(j *job, t *Task, bi, bj int, cand, old []float64, q int) bool {
	vc := cl.vcacheLocked(j, q)
	for p := 0; p < verifyPairs; p++ {
		r0 := 2 * p
		ref1, ref2, mag := 0.0, 0.0, 0.0
		for k := t.K; k < t.K+t.Steps; k++ {
			u1, u2 := vc.uPairLocked(j, cl.pool, r0, bi, k, q)
			y1, y2 := vc.yPairLocked(j, r0, k, bj, q)
			ref1 += blas.Dot(u1, y1, q)
			ref2 += blas.Dot(u2, y2, q)
			mag += vc.nA[vkey(0, bi, k)] * vc.nB[vkey(0, k, bj)]
		}
		if !blas.ProbeAccepts(cand, old, vc.s[r0], vc.r[r0], vc.s[r0+1], vc.r[r0+1], ref1, ref2, mag, q, blas.DefaultVerifyTol) {
			return false
		}
	}
	return true
}

// verifyTileLocked checks one candidate value for tile (bi, bj) of job
// j against old + Σ_k A_k·B_k over the task's steps, from the
// master-owned operands (opA, opB; for an LU trailing update, the
// stage's negated L panel and U row). The "old" value is the master
// tile itself: commit is the only write, so it is exactly what the
// worker started from. A probe failure escalates to the exact recompute
// and the bit-for-bit comparison — an honest worker can never be
// refused, because every worker path is pinned to the same ascending-k
// FMA chain. The candidate is well-formed: commitLocked validated the
// result first.
func (cl *Cluster) verifyTileLocked(j *job, t *Task, bi, bj int, cand []float64) bool {
	q := j.q
	old := j.spec.result().Block(bi, bj).Data
	cl.verifyChecks++
	began := time.Now()
	// The probe rides the per-job cache; the exact operand views are
	// only assembled if it fails and escalation needs them.
	ok := cl.probeLocked(j, t, bi, bj, cand, old, q)
	if !ok {
		// Escalation: replay the exact update chain the worker was
		// supposed to run.
		cl.tilesRecomputed++
		a := make([][]float64, t.Steps)
		b := make([][]float64, t.Steps)
		for s := range a {
			a[s] = j.opA(bi, t.K+s, cl.pool)
			b[s] = j.opB(t.K+s, bj)
		}
		ref := cl.pool.Get(q * q)
		blas.RecomputeTile(ref, old, a, b, q)
		ok = blas.EqualBits(ref, cand)
		cl.pool.Put(ref)
	}
	cl.verifyNS += time.Since(began).Nanoseconds()
	if !ok {
		cl.verifyFails++
	}
	return ok
}

// verifyTaskLocked checks every tile of task t's result, blocks
// (row-major), before any of it is committed, and reports whether all
// pass; it stops at the first confirmed-corrupt tile.
func (cl *Cluster) verifyTaskLocked(j *job, t *Task, blocks [][]float64) bool {
	for n, blk := range blocks {
		if !cl.verifyTileLocked(j, t, t.I0+n/t.Cols, t.J0+n%t.Cols, blk) {
			return false
		}
	}
	return true
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
// then drained exactly like a dead worker — its in-flight tasks requeue
// onto the survivors.
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
