// Package cluster is the fault-tolerant multi-job scheduler layered on the
// paper's master-worker runtime: a long-running service that accepts many
// concurrent matrix-product and LU jobs, maintains a worker registry with
// join/leave and heartbeat-based failure detection, and reschedules the
// work lost with a dead worker onto the survivors.
//
// The design exploits the paper's maximum-reuse block ordering (§4.1/§5):
// a worker's in-flight state is exactly one µ×µ chunk of C plus its
// staging operand sets, all of which the master can regenerate from the
// matrices it owns. Recovery is therefore requeue-and-redispatch of at
// most one chunk per lost worker — no checkpointing, no worker-to-worker
// state transfer.
//
// A worker incarnation is one Session: JoinWorker registers the worker
// and returns it, and it is the engine.Feed the transport's
// engine.RunFeeder runs — Next pulls the incarnation's tasks, Set and
// Commit move the data, Heartbeat proves liveness,
// Lost and Close end it. Every call is bound to the incarnation, so a
// session whose worker was declared dead or replaced by a reconnect can
// neither pull work for, nor commit into, nor kill its successor. The
// in-process runner (RunLocalWorker) and the TCP runtime
// (internal/netmw) are both thin shells over Session, so recovery logic
// is tested deterministically without sockets or wall-clock sleeps
// (ManualClock + CheckExpiry).
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/stats"
)

// Sentinel errors of the cluster and its sessions.
var (
	// ErrClosed is returned once the cluster shut down.
	ErrClosed = errors.New("cluster: closed")
	// ErrStaleTask marks a completion for a task no longer assigned to the
	// reporting session (it was requeued after the worker was declared
	// dead, or revoked by a speculative duplicate's win). It is an
	// engine.ErrStaleResult, which the feeder drops.
	ErrStaleTask = fmt.Errorf("cluster: stale task completion: %w", engine.ErrStaleResult)
	// ErrUnknownWorker marks a call from a session whose incarnation was
	// declared dead or replaced; the transport should re-register.
	ErrUnknownWorker = errors.New("cluster: unknown or dead worker")
	// ErrDraining rejects new submissions while the cluster drains for a
	// graceful shutdown; resubmitting an already-accepted idempotency key
	// still attaches.
	ErrDraining = errors.New("cluster: draining, not accepting new jobs")
	// ErrWorkerQuarantined refuses a worker whose results failed
	// verification past the strike threshold; the verdict is journaled,
	// so it also refuses the worker after a master restart.
	ErrWorkerQuarantined = errors.New("cluster: worker quarantined for corrupt results")
)

// RetryPolicy shapes the pause between a task's loss and its next
// dispatch. The zero value keeps immediate requeue (today's behavior);
// MaxAttempts in Config stays the cap that quarantines the job.
type RetryPolicy struct {
	// Backoff is the pause before a requeued task is eligible again,
	// doubled per attempt (attempt 1 waits Backoff, attempt 2 twice
	// that, …) up to 16× Backoff. 0 = requeued tasks are immediately
	// eligible.
	Backoff time.Duration
}

// delay returns the eligibility pause for the attempt-th requeue.
func (p RetryPolicy) delay(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	return p.Backoff << min(max(attempt-1, 0), 4)
}

// Config tunes a Cluster.
type Config struct {
	// HeartbeatTimeout is how long a worker may stay silent before
	// CheckExpiry declares it dead. Default 10s.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds how many times one task may be dispatched before
	// its job fails (each worker loss costs one attempt). Default 5.
	MaxAttempts int
	// Clock supplies time; nil uses the real clock.
	Clock Clock
	// Adaptive tunes the online-adaptive layer: profile-driven chunk
	// shaping and speculative straggler re-dispatch. Zero value cuts
	// every chunk at its job's µ, clamped by the worker's memory.
	Adaptive AdaptiveConfig
	// Retry paces requeues after worker losses with capped exponential
	// backoff. Zero value requeues immediately.
	Retry RetryPolicy
	// Log, when set, receives every job lifecycle event (accepted, chunk
	// committed, done) durably before the corresponding state transition
	// is acknowledged; Recover replays it after a restart. Nil keeps the
	// control plane in memory only.
	Log JobLog
	// Verify tunes Freivalds result verification and worker quarantine.
	// Zero value (VerifyOff) commits results unchecked.
	Verify VerifyPolicy
}

// Stats is a point-in-time summary of the service.
type Stats struct {
	WorkersAlive int
	WorkersLost  int // cumulative
	Requeues     int // cumulative tasks re-dispatched after a loss
	JobsDone     int
	JobsFailed   int
	// JobsQuarantined counts the Failed jobs that exhausted their retry
	// budget (poison jobs); they are included in JobsFailed.
	JobsQuarantined int
	// FlushedBlocks counts C tiles committed from workers' Results over
	// the cluster's lifetime.
	FlushedBlocks int64
	// Speculations counts straggler duplicates dispatched; SpecWins
	// counts those where the duplicate (or the original racing it)
	// finished first and revoked the other copy.
	Speculations int
	SpecWins     int
	// VerifyChecks counts tiles Freivalds-checked before commit;
	// VerifyFailures counts tiles refused after the exact-recompute
	// escalation confirmed corruption; TilesRecomputed counts the
	// escalations themselves (probe failures, confirmed or not).
	VerifyChecks    int
	VerifyFailures  int
	TilesRecomputed int
	// VerifyNS is the cumulative wall time spent in verification,
	// nanoseconds (probes plus escalations).
	VerifyNS int64
	// WorkersQuarantined counts workers parked for corrupt results;
	// TransportFaults counts wire-level CRC faults reported against
	// workers (counted only — no strikes).
	WorkersQuarantined int
	TransportFaults    int
}

// Cluster is the scheduler service. All methods are safe for concurrent
// use.
type Cluster struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cfg     Config
	clock   Clock
	reg     *registry
	jobs    map[JobID]*job
	order   []JobID // submission order, every job ever accepted
	live    []*job  // the Running jobs, in submission order (pruneLiveLocked)
	rr      int     // round-robin scan start in live, for multi-job fairness
	nextID  JobID
	closed  bool
	requeue int
	// pool recycles the block buffers Next copies out of the job
	// matrices, which the transports release once serialized (or once
	// applied, on the in-process path), so steady-state dispatch stops
	// allocating per transfer; and the negated LU panels (job.opA).
	pool *engine.BlockPool
	// est is the live per-worker speed/bandwidth estimator; it locks
	// itself, so reporting paths need not hold cl.mu.
	est          *stats.Estimator
	specLaunched int
	specWon      int

	// log is the durable event sink (nil = memory-only); logErr latches
	// the first append failure, after which new submissions are refused
	// rather than accepted without durability. accepting counts the
	// accept records being appended outside the mutex (acceptLocked).
	log       JobLog
	logErr    error
	accepting int
	// keys maps client idempotency keys to their jobs, so resubmitting
	// an accepted key attaches instead of double-running.
	keys map[uint64]JobID
	// draining refuses new submissions (graceful shutdown); keyed
	// resubmits of accepted jobs still attach.
	draining bool
	// wakeAt is the earliest armed backoff wake-up (real clock only), so
	// Next does not stack a timer per blocked call.
	wakeAt time.Time
	// parks counts the times a Next caller blocked in cond.Wait, so a
	// test can tell that a dispatcher has provably parked; acceptWaits the
	// times a commit waited for its job's accept record; scanned counts
	// the jobs dispatch examined, so a test can tell that it visits only
	// live jobs.
	parks, acceptWaits, scanned int

	// verify is the normalized verification policy; quarantined records
	// parked workers by id (worker records are replaced on rejoin, the
	// verdict must not be).
	verify          VerifyPolicy
	quarantined     map[string]quarantineInfo
	verifyChecks    int
	verifyFails     int
	tilesRecomputed int
	transportFaults int
	verifyNS        int64
}

// New builds a cluster service.
func New(cfg Config) *Cluster {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	cl := &Cluster{
		cfg:         cfg,
		clock:       cfg.Clock,
		reg:         newRegistry(),
		jobs:        make(map[JobID]*job),
		keys:        make(map[uint64]JobID),
		pool:        engine.NewBlockPool(),
		est:         stats.NewEstimator(),
		log:         cfg.Log,
		verify:      cfg.Verify.normalized(),
		quarantined: make(map[string]quarantineInfo),
	}
	cl.cond = sync.NewCond(&cl.mu)
	return cl
}

// SubmitJob admits a job and returns its ID. The cluster references the
// spec's matrices until it releases the job (see JobSpec).
func (cl *Cluster) SubmitJob(spec JobSpec) (JobID, error) {
	id, _, err := cl.SubmitJobKeyed(0, spec)
	return id, err
}

// SubmitJobKeyed admits a job under a client-chosen idempotency key.
// Resubmitting an accepted key attaches to the existing job (attached
// true) instead of running it twice — the durable-client retry
// contract: a client that lost its connection after the accept
// resubmits the same key and lands on the same job, before or after a
// master restart. Key 0 means unkeyed.
//
// With a JobLog configured, SubmitJobKeyed returns only once the accept
// event (including the operand matrices) is durable, but a product's
// tasks are dispatched while it is written (acceptLocked); an append
// failure fails the job and refuses the submission rather than
// accepting work that would not survive a crash.
func (cl *Cluster) SubmitJobKeyed(key uint64, spec JobSpec) (id JobID, attached bool, err error) {
	admitted := false
	// A pooled spec that is not admitted has no other owner.
	defer func() {
		if !admitted {
			spec.recycle(cl.pool)
		}
	}()
	if err := validateSpec(spec); err != nil {
		return 0, false, err
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return 0, false, ErrClosed
	}
	// The key check precedes the drain gate: a retried submit of work
	// accepted before the drain began must still find its job.
	if key != 0 {
		if id, ok := cl.keys[key]; ok {
			return id, true, nil
		}
	}
	if cl.draining {
		return 0, false, ErrDraining
	}
	if cl.logErr != nil {
		return 0, false, fmt.Errorf("cluster: job log broken, refusing new work: %w", cl.logErr)
	}
	j := newJob(cl.nextID, spec)
	j.key = key
	cl.nextID++
	cl.addJobLocked(j)
	admitted = true
	defer cl.cond.Broadcast()
	if cl.log == nil {
		cl.startLocked(j)
		return j.id, false, nil
	}
	if err := cl.acceptLocked(j); err != nil {
		return 0, false, err
	}
	return j.id, false, nil
}

// acceptLocked appends admitted job j's accept record with cl.mu
// released, and returns once it is durable or has failed. A product
// starts first, so its first tasks go out while the record is written;
// an LU job starts after, since stage 0's factorization rewrites the M
// the record carries. Until the record is durable the job's operands
// are held as a session holds them (releaseLocked waits), its commits
// wait (awaitAcceptLocked), its done record is deferred (logDoneLocked)
// and no compaction runs (CompactLog), so no record of the job precedes
// its accept record in the log. A failed append fails the job and
// latches the log broken: nothing more of the job is journaled, and
// its in-flight results are dropped as stale.
func (cl *Cluster) acceptLocked(j *job) error {
	log := cl.log
	rec := encodeAccepted(j.id, j.key, j.spec)
	j.accepting = true
	j.held++
	cl.accepting++
	if j.spec.Kind != LU {
		cl.startLocked(j)
		cl.cond.Broadcast()
	}
	cl.mu.Unlock()
	err := writeLog(log, false, rec)
	cl.mu.Lock()
	j.accepting = false
	j.held--
	cl.accepting--
	switch {
	case err != nil:
		cl.latchLocked(err)
		err = fmt.Errorf("cluster: persisting accept: %w", err)
		j.resultFree = true // the refused client asks for nothing
		cl.failJobLocked(j, err)
	case j.state == Running && j.spec.Kind == LU:
		cl.startLocked(j)
	case j.state != Running:
		cl.logDoneLocked(j) // the job ended while its record was written
	}
	cl.releaseLocked(j)
	return err
}

// awaitAcceptLocked waits until job id's accept record is durable.
func (cl *Cluster) awaitAcceptLocked(id JobID) {
	for j := cl.jobs[id]; j != nil && j.accepting; {
		cl.acceptWaits++
		cl.cond.Wait()
	}
}

// addJobLocked enters j into the job table — at admission, at its
// replay and at a snapshot's load, so j may already be running or
// terminal.
func (cl *Cluster) addJobLocked(j *job) {
	cl.jobs[j.id] = j
	cl.order = append(cl.order, j.id)
	if j.key != 0 {
		cl.keys[j.key] = j.id
	}
	if j.state != Running {
		close(j.doneCh)
		return
	}
	cl.live = append(cl.live, j)
}

// JobResult returns the job's result matrix (C for matmul, the packed
// L\U for LU) once it is Done — the read side of idempotent resubmit: a
// client that attached to an already-finished job fetches the result it
// missed. Running jobs return an error, as do Failed ones
// (with the failure cause).
func (cl *Cluster) JobResult(id JobID) (*matrix.Blocked, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	j := cl.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("cluster: unknown job %d", id)
	}
	switch j.state {
	case Done:
		res := j.spec.result()
		if res == nil {
			return nil, fmt.Errorf("cluster: job %d result already released", id)
		}
		return res, nil
	case Failed:
		if j.err != nil {
			return nil, j.err
		}
		return nil, fmt.Errorf("cluster: job %d failed", id)
	default:
		return nil, fmt.Errorf("cluster: job %d not finished (%s)", id, j.state)
	}
}

// ForgetResult tells the cluster that an unkeyed job's result has been
// delivered or can no longer be asked for, so it may go with the
// operands when the job is released; the TCP server calls it once the
// reply is flushed or the submitting connection is gone. Keyed jobs
// ignore it: a retry must be able to re-attach and fetch the result.
func (cl *Cluster) ForgetResult(id JobID) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if j := cl.jobs[id]; j != nil && j.key == 0 {
		j.resultFree = true
		cl.releaseLocked(j)
	}
}

// Drain stops admitting new jobs (ErrDraining) while letting accepted
// work run to completion; keyed resubmits of accepted jobs still
// attach. The graceful-shutdown entry point: drain, AwaitQuiesce, then
// Close.
func (cl *Cluster) Drain() {
	cl.mu.Lock()
	cl.draining = true
	cl.mu.Unlock()
}

// AwaitQuiesce blocks until no job is Running, or the timeout
// elapses; it reports whether the cluster quiesced. Combine with Drain
// for a bounded graceful shutdown.
func (cl *Cluster) AwaitQuiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		cl.mu.Lock()
		cl.cond.Broadcast()
		cl.mu.Unlock()
	})
	defer timer.Stop()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for {
		if !slices.ContainsFunc(cl.live, func(j *job) bool { return j.state == Running }) {
			return true
		}
		if cl.closed || !time.Now().Before(deadline) {
			return false
		}
		cl.cond.Wait()
	}
}

// JobStatus reports a job's current state.
func (cl *Cluster) JobStatus(id JobID) (Status, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	j := cl.jobs[id]
	if j == nil {
		return Status{}, fmt.Errorf("cluster: unknown job %d", id)
	}
	return j.status(), nil
}

// Jobs snapshots every job's status in submission order — the service's
// status-report view (which includes quarantined poison jobs).
func (cl *Cluster) Jobs() []Status {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]Status, 0, len(cl.order))
	for _, id := range cl.order {
		out = append(out, cl.jobs[id].status())
	}
	return out
}

// Wait blocks until the job reaches Done or Failed and returns its final
// status.
func (cl *Cluster) Wait(id JobID) (Status, error) {
	done, err := cl.Done(id)
	if err != nil {
		return Status{}, err
	}
	<-done
	return cl.JobStatus(id)
}

// Done returns a channel closed when the job reaches Done or Failed, for
// callers that need to select against their own shutdown.
func (cl *Cluster) Done(id JobID) (<-chan struct{}, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	j := cl.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("cluster: unknown job %d", id)
	}
	return j.doneCh, nil
}

// BlockPool exposes the cluster's block-buffer pool so transports
// release the buffers sessions hand out back where they came from
// (releasing into a different pool works but defeats recycling).
func (cl *Cluster) BlockPool() *engine.BlockPool { return cl.pool }

// Workers snapshots the registry.
func (cl *Cluster) Workers() []WorkerInfo {
	cl.mu.Lock()
	out := cl.reg.snapshot()
	cl.mu.Unlock()
	for i := range out {
		if p, ok := cl.est.Profile(out[i].ID); ok {
			out[i].Profile = p
		}
	}
	return out
}

// ClusterStats summarizes the service.
func (cl *Cluster) ClusterStats() Stats {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	st := Stats{
		WorkersAlive:       cl.reg.alive(),
		WorkersLost:        cl.reg.lost,
		Requeues:           cl.requeue,
		Speculations:       cl.specLaunched,
		SpecWins:           cl.specWon,
		VerifyChecks:       cl.verifyChecks,
		VerifyFailures:     cl.verifyFails,
		TilesRecomputed:    cl.tilesRecomputed,
		VerifyNS:           cl.verifyNS,
		WorkersQuarantined: len(cl.quarantined),
		TransportFaults:    cl.transportFaults,
	}
	for _, j := range cl.jobs {
		switch j.state {
		case Done:
			st.JobsDone++
		case Failed:
			st.JobsFailed++
			if j.quarantined {
				st.JobsQuarantined++
			}
		}
	}
	for _, w := range cl.reg.workers {
		st.FlushedBlocks += w.flushed
	}
	return st
}

// Close shuts the service down: unfinished jobs fail with ErrClosed and
// every session's Next ends the feed (engine.ErrFeedDone).
func (cl *Cluster) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return
	}
	cl.closed = true
	// Shutdown failures are transient, not terminal: drop the log first
	// so these jobs are NOT journaled as Failed — a restart over the
	// same journal must resume them, which is the whole point.
	cl.log = nil
	for _, id := range cl.order {
		j := cl.jobs[id]
		if j.state == Running {
			j.pending = nil
			cl.finishJobLocked(j, Failed, ErrClosed)
		}
	}
	cl.cond.Broadcast()
}

// --- membership ----------------------------------------------------------

// JoinWorker registers a worker under id with mem blocks of advertised
// memory and slots concurrently held tasks (a multi-core worker that
// pipelines its transfers asks for > 1; values < 1 mean 1), and returns
// the new incarnation's Session. Re-joining an existing id replaces the
// old incarnation: it is declared dead, so any tasks it held are
// requeued (the reconnect path) and its session, still tearing down,
// can no longer act on the worker.
func (cl *Cluster) JoinWorker(id string, mem, slots int) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: empty worker id")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClosed
	}
	if _, bad := cl.quarantined[id]; bad {
		return nil, fmt.Errorf("%w: %q", ErrWorkerQuarantined, id)
	}
	if old := cl.reg.workers[id]; old != nil && !old.dead {
		cl.loseWorkerLocked(old)
	}
	w := cl.reg.join(id, mem, slots, cl.clock.Now())
	return &Session{cl: cl, w: w, held: make(map[engine.AssignID]*Task)}, nil
}

// CheckExpiry declares every worker dead whose last heartbeat is older
// than HeartbeatTimeout, requeues their tasks, and returns their ids. The
// service calls it on a ticker; deterministic tests call it directly after
// advancing a ManualClock.
func (cl *Cluster) CheckExpiry() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var ids []string
	for _, w := range cl.reg.expired(cl.clock.Now(), cl.cfg.HeartbeatTimeout) {
		cl.loseWorkerLocked(w)
		ids = append(ids, w.id)
	}
	// Unconditional: a retry backoff may have expired since the last
	// sweep, and with a ManualClock this is the only wake-up source for
	// dispatchers parked on cooling-down tasks.
	cl.cond.Broadcast()
	return ids
}

// loseWorkerLocked declares an incarnation dead and requeues its work;
// its session keeps holding what it held until it lets go.
func (cl *Cluster) loseWorkerLocked(w *workerState) {
	w.dead = true
	cl.reg.lost++
	for k, t := range w.inflight {
		delete(w.inflight, k)
		cl.requeueLocked(t)
	}
	cl.cond.Broadcast()
}

// requeueLocked returns a lost task to its job's pending pool as a copy
// with a fresh Attempt, eligible once the retry policy's per-attempt
// backoff has elapsed; MaxAttempts bounds the attempts per seq. The copy
// leaves the shared pointer alone: the lost worker's transport goroutine
// may still be reading the old Task, and the fresh attempt also makes
// its late completion key stale. The master's C tiles are untouched
// until a commit, so the copy recomputes from them. A lost copy whose
// speculative duplicate is still in flight on a live worker is simply
// dropped: the surviving copy carries the work.
func (cl *Cluster) requeueLocked(t *Task) {
	j := cl.jobs[t.Job]
	if j == nil || j.state != Running {
		return
	}
	j.inflight--
	cl.requeue++
	j.requeues++
	if cl.otherCopyInflightLocked(t) {
		return
	}
	// Every copy of this seq is gone: lift the speculation latch so the
	// re-dispatched work can be duplicated again if it straggles anew.
	delete(j.specActive, t.Seq)
	nt := *t
	nt.Attempt = j.nextAttempt(t.Seq)
	if nt.Attempt >= cl.cfg.MaxAttempts {
		cl.quarantineLocked(j, fmt.Errorf("cluster: task %d/%d exceeded %d attempts",
			nt.Job, nt.Seq, cl.cfg.MaxAttempts))
		return
	}
	if d := cl.cfg.Retry.delay(nt.Attempt); d > 0 {
		nt.notBefore = cl.clock.Now().Add(d)
	}
	j.pending = append([]*Task{&nt}, j.pending...)
}

// quarantineLocked parks a poison job terminally: Failed with the
// quarantined mark, visible in Status and Stats, durably journaled.
func (cl *Cluster) quarantineLocked(j *job, err error) {
	j.quarantined = true
	cl.failJobLocked(j, err)
}

// --- dispatch ------------------------------------------------------------

// takeLocked picks the next task that fits the asking worker's free
// slots and advertised memory, scanning running jobs round-robin from the
// last served position so concurrent jobs share the workers fairly. The
// memory budget is the worker's engine.Ledger with the new task in
// flight beside the ones it holds, so pipelining never oversubscribes
// the advertised capacity.
func (cl *Cluster) takeLocked(w *workerState) *Task {
	cl.pruneLiveLocked()
	if len(w.inflight) >= w.slots {
		return nil // every slot busy; a commit will wake us
	}
	var held engine.Ledger
	for _, t := range w.inflight {
		held = held.Add(t.Rows, t.Cols)
	}
	now := cl.clock.Now()
	var soonest time.Time // earliest backoff expiry among skipped work
	n := len(cl.live)
	for i := 0; i < n; i++ {
		j := cl.live[(cl.rr+i)%n]
		cl.scanned++
		if j.state != Running {
			continue
		}
		if t := cl.takeFromLocked(j, w, held, now, &soonest); t != nil {
			cl.dispatchLocked(j, w, t, i)
			return t
		}
	}
	cl.armBackoffWakeLocked(now, soonest)
	// Nothing fresh fits this worker; consider duplicating a straggling
	// in-flight task onto it (first finished copy wins).
	return cl.speculateLocked(w, held)
}

// takeFromLocked hands worker w, whose in-flight tasks are held, its
// next task of job j if one fits: the first lost copy past its backoff
// from the pending pool, else a fresh chunk from the job's cutter — its
// side from ChunkSide, its place from the tour rule, starting at w's
// previous chunk of the job. A lost copy that no live worker's memory
// can hold goes back to the cutter, to be re-cut at a side the
// survivors hold. soonest learns the earliest retry backoff still
// running.
func (cl *Cluster) takeFromLocked(j *job, w *workerState, held engine.Ledger, now time.Time, soonest *time.Time) *Task {
	fits := func(rows, cols int) bool { return w.fits(held.Add(rows, cols)) }
	for idx, t := range j.pending {
		if t.notBefore.After(now) {
			*soonest = earlier(*soonest, t.notBefore)
			continue
		}
		switch {
		case fits(t.Rows, t.Cols):
			j.pending = append(j.pending[:idx], j.pending[idx+1:]...)
			return t
		case !cl.anyWorkerHoldsLocked(t.Rows, t.Cols):
			j.pending = append(j.pending[:idx], j.pending[idx+1:]...)
			if err := j.handBack(t); err != nil {
				cl.failJobLocked(j, err)
				return nil
			}
		}
		break // the copy waits for a worker that holds it
	}
	if j.cutter.Empty() {
		return nil
	}
	p, _ := cl.est.Profile(w.id)
	mu := cl.cfg.Adaptive.ChunkSide(p, j.steps(), j.spec.Mu, w.mem)
	if mu < 1 {
		if !cl.anyWorkerHoldsLocked(1, 1) {
			cl.failJobLocked(j, fmt.Errorf(
				"cluster: job %d needs %d blocks for a 1×1 chunk but no live worker advertises that much memory",
				j.id, engine.Ledger{}.Add(1, 1).Blocks()))
		}
		return nil
	}
	var cur *[2]int
	if at, ok := w.lastAt[j.id]; ok {
		cur = &at
	}
	i0, j0, rows, cols, _ := j.cutter.Next(mu, cur)
	if !fits(rows, cols) {
		return nil
	}
	return j.cutTask(i0, j0, rows, cols)
}

// dispatchLocked records the bookkeeping of handing task t of job j to
// worker w from round-robin scan offset i.
func (cl *Cluster) dispatchLocked(j *job, w *workerState, t *Task, i int) {
	j.inflight++
	if w.lastAt == nil {
		w.lastAt = make(map[JobID][2]int)
	}
	w.lastAt[t.Job] = [2]int{t.I0, t.J0}
	cl.rr = (cl.rr + i + 1) % len(cl.live)
}

// earlier returns the earlier of two times, treating zero as unset.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// armBackoffWakeLocked schedules a Broadcast when the earliest skipped
// backoff expires, so dispatchers blocked in Next re-evaluate
// without polling. Real clock only — ManualClock tests drive wake-ups
// through CheckExpiry's unconditional Broadcast. One timer is kept
// armed at the soonest known expiry.
func (cl *Cluster) armBackoffWakeLocked(now, soonest time.Time) {
	if soonest.IsZero() {
		return
	}
	if _, real := cl.clock.(realClock); !real {
		return
	}
	if !cl.wakeAt.IsZero() && cl.wakeAt.After(now) && !cl.wakeAt.After(soonest) {
		return // an armed timer already fires in time
	}
	cl.wakeAt = soonest
	time.AfterFunc(soonest.Sub(now)+time.Millisecond, func() {
		cl.mu.Lock()
		cl.wakeAt = time.Time{}
		cl.cond.Broadcast()
		cl.mu.Unlock()
	})
}

// fits reports whether w's advertised memory holds everything l counts
// (a worker advertising 0 is unconstrained).
func (w *workerState) fits(l engine.Ledger) bool { return w.mem <= 0 || l.Blocks() <= w.mem }

// anyWorkerHoldsLocked reports whether some live worker could hold a
// rows×cols task with nothing else in flight.
func (cl *Cluster) anyWorkerHoldsLocked(rows, cols int) bool {
	alone := engine.Ledger{}.Add(rows, cols)
	for _, w := range cl.reg.workers {
		if !w.dead && w.fits(alone) {
			return true
		}
	}
	return false
}

// commitLocked retires task t, which worker w reports finished with
// its tile, blocks (Rows×Cols blocks, row-major): the task leaves the
// in-flight set, freeing its slot and memory, and its tile is checked
// and committed into the job matrix — or, refused by verification,
// committed not at all and the task requeued. Commit is a copy, never
// an add: the worker continued each block's serial FMA chain in place,
// so the committed value is bit-exact with the sequential order. A task
// the worker no longer holds in flight — revoked by a speculative
// duplicate's win, or requeued when the worker was declared dead —
// returns ErrStaleTask, and a malformed tile an error that leaves the
// task in flight, for the session's loss to requeue.
func (cl *Cluster) commitLocked(w *workerState, t *Task, blocks [][]float64) error {
	if cur, ok := w.inflight[t.key()]; !ok || cur != t {
		return ErrStaleTask
	}
	j := cl.jobs[t.Job]
	if len(blocks) != t.Rows*t.Cols {
		return fmt.Errorf("cluster: task %d/%d result carries %d blocks for a %dx%d tile",
			t.Job, t.Seq, len(blocks), t.Rows, t.Cols)
	}
	for _, blk := range blocks {
		if q := cl.taskQ(j); len(blk) != q*q {
			return fmt.Errorf("cluster: task %d/%d result block has %d elements, want %d",
				t.Job, t.Seq, len(blk), q*q)
		}
	}
	delete(w.inflight, t.key())
	w.done++
	w.lastSeen = cl.clock.Now()
	// The freed slot and memory — and a finished job or a new LU stage —
	// must wake every dispatcher blocked in Next, whatever happens below.
	defer cl.cond.Broadcast()
	if j == nil || j.state != Running {
		return nil // the job failed or closed while the task was out
	}
	// Verification precedes any commit: a task's tiles commit together
	// or not at all, so a refused task recomputes from untouched tiles.
	if cl.verify.Mode == VerifyAll && !cl.verifyTaskLocked(j, t, blocks) {
		w.verifyFails++
		cl.requeueLocked(t)
		cl.strikeLocked(w, fmt.Sprintf("task %d/%d failed result verification", t.Job, t.Seq))
		return nil
	}
	// A speculated seq resolves at its first commit: the loser's Result
	// will find its copy revoked (ErrStaleTask).
	cl.resolveSpeculationLocked(j, t)
	j.inflight--
	res := j.spec.result()
	for n, blk := range blocks {
		copy(res.Block(t.I0+n/t.Cols, t.J0+n%t.Cols).Data, blk)
	}
	w.flushed += int64(len(blocks))
	// Journal the chunk from the authoritative copy just written.
	cl.logChunkLocked(j, t)
	j.done++
	cl.settleLocked(j)
	return nil
}

// --- task data -----------------------------------------------------------

// chunkLocked copies a dispatched task's C tile out of the job's matrix
// into pooled blocks: the downlink transfer, row-major.
func (cl *Cluster) chunkLocked(t *Task) [][]float64 {
	src := cl.jobs[t.Job].spec.result()
	out := make([][]float64, 0, t.Rows*t.Cols)
	for i := t.I0; i < t.I0+t.Rows; i++ {
		for jj := t.J0; jj < t.J0+t.Cols; jj++ {
			out = append(out, cl.pool.GetCopy(src.Block(i, jj).Data))
		}
	}
	return out
}

// setLocked appends the k-th update set for the task to set: Rows A
// blocks and Cols B blocks of step t.K+k, the job's operands by
// reference (opA, opB) — read-only, and valid while a session holds the
// task (the hold keeps the job from being released under it), so a
// session never asks for a released job's set; one that does gets an
// error and appends nothing.
func (cl *Cluster) setLocked(t *Task, k int, set *engine.Set) error {
	j := cl.jobs[t.Job]
	if j == nil {
		return fmt.Errorf("cluster: unknown job %d", t.Job)
	}
	if j.spec.A == nil && j.spec.M == nil {
		return fmt.Errorf("cluster: set %d of task %d/%d: job matrices released", k, t.Job, t.Seq)
	}
	if k < 0 || k >= t.Steps {
		return fmt.Errorf("cluster: set %d out of range for job %d", k, t.Job)
	}
	for i := t.I0; i < t.I0+t.Rows; i++ {
		set.A = append(set.A, j.opA(i, t.K+k, cl.pool))
	}
	for jj := t.J0; jj < t.J0+t.Cols; jj++ {
		set.B = append(set.B, j.opB(t.K+k, jj))
	}
	return nil
}

func (cl *Cluster) taskQ(j *job) int {
	if j == nil {
		return 0
	}
	return j.q
}

// --- internal state transitions ------------------------------------------

// startLocked opens an admitted job for dispatch: an LU job's stage 0
// is factored — a zero pivot fails the job — and a job with nothing to
// do is Done at once.
func (cl *Cluster) startLocked(j *job) {
	if j.spec.Kind == LU {
		if err := j.openStage(cl.pool); err != nil {
			cl.finishJobLocked(j, Failed, err)
			return
		}
	}
	if j.finished() {
		cl.finishJobLocked(j, Done, nil)
	}
}

// pruneLiveLocked drops the jobs that turned terminal from the live list,
// keeping the round-robin start on the job it was on (or the next one, if
// that job left). The live list is all dispatch looks at, so its cost
// follows the jobs in flight, not the jobs ever accepted. Only
// the top of a dispatch decision prunes it: the scans below, which can
// fail a job, never see the list move.
func (cl *Cluster) pruneLiveLocked() {
	kept := cl.live[:0]
	for i, j := range cl.live {
		if j.state == Done || j.state == Failed {
			if i < cl.rr {
				cl.rr--
			}
			continue
		}
		kept = append(kept, j)
	}
	clear(cl.live[len(kept):]) // a pruned job's matrices are not pinned here
	cl.live = kept
	if cl.rr >= len(kept) {
		cl.rr = 0
	}
}

// settleLocked runs after a chunk of j committed: an LU stage with
// nothing left to cut, dispatch, compute or commit opens the next one —
// or fails the job on a zero pivot — and a job with nothing left at all
// is Done.
func (cl *Cluster) settleLocked(j *job) {
	if j.spec.Kind == LU && j.stage < j.spec.M.BR && j.drained() {
		j.stage++
		if err := j.openStage(cl.pool); err != nil {
			cl.finishJobLocked(j, Failed, err)
			return
		}
	}
	if j.finished() {
		cl.finishJobLocked(j, Done, nil)
	}
}

func (cl *Cluster) failJobLocked(j *job, err error) {
	j.pending = nil
	cl.finishJobLocked(j, Failed, err)
	cl.cond.Broadcast()
}

func (cl *Cluster) finishJobLocked(j *job, state JobState, err error) {
	if j.state != Running {
		return
	}
	j.state = state
	j.err = err
	cl.logDoneLocked(j)
	// The locality cursors for this job are dead weight now; drop them
	// so long-lived workers don't accumulate one entry per job forever.
	for _, w := range cl.reg.workers {
		delete(w.lastAt, j.id)
	}
	close(j.doneCh)
	cl.releaseLocked(j)
}

// releaseLocked drops what a terminal job no longer needs, so master
// memory follows the jobs in flight rather than the jobs ever served.
// The operands and the verify projection cache go once no session holds
// one of the job's tasks — a session holds a task from its dispatch
// until it reports it or closes, dead incarnations included: Sets
// reference the job's operand blocks and LU panels, and a session
// declared lost, or a revoked speculation loser, can still be writing
// one to its socket (the accept record's append holds them the same
// way). The job is then released: each session's next assignment tells
// its worker to drop the job's cached blocks (Session.dropLocked). The
// result goes with them when nobody can ask for it anymore
// (ForgetResult). The light record — id, state, error, counters, comm
// totals — stays. Every path on which a session lets go of a task, or
// the submitter of the result, ends here.
func (cl *Cluster) releaseLocked(j *job) {
	if j == nil || (j.state != Done && j.state != Failed) || j.held > 0 {
		return
	}
	dropMatrix(&j.spec.A, j.spec.Pooled, cl.pool)
	dropMatrix(&j.spec.B, j.spec.Pooled, cl.pool)
	j.dropPanels(cl.pool)
	j.vcache = nil
	j.released = true
	if j.resultFree {
		j.spec.recycle(cl.pool)
	}
}
