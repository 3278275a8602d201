package cluster

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// Session is one worker incarnation, as JoinWorker returns it, and the
// engine.Feed its transport runs — the single bridge both cluster
// transports share (the TCP server session and the in-process local
// worker): Next pulls the incarnation's tasks, Set and Commit move
// their data, and Lost declares the incarnation dead, requeuing
// whatever it held. Every call is bound to the incarnation: once it is
// declared dead — lost, expired, quarantined, or replaced by a
// reconnect under the same id — Next refuses it (ErrUnknownWorker),
// Commit reads as stale, and Heartbeat fails, so a session still
// tearing down cannot act on its successor.
//
// The session holds each task from the dispatch that hands it out until
// Commit reports it, or until Close: while it does, the
// task's job keeps its operands (see Cluster.releaseLocked), because
// Sets reference them. All of its state is guarded by the
// cluster's mutex.
type Session struct {
	cl *Cluster
	w  *workerState
	// held maps the assignments the session holds to their tasks.
	held map[engine.AssignID]*Task
	// shipped lists the jobs whose operands the session may have sent
	// its worker and not yet told it to drop.
	shipped []JobID
	// nextErr is the scheduler's verdict when Next ended the session
	// uncleanly (declared dead, quarantined); Close returns it.
	nextErr error
}

// SessionReport is a finished session's accounting, folded into the
// worker's records when the session closes.
type SessionReport struct {
	// Comm is RunFeeder's delta-protocol accounting.
	Comm engine.CommStats
	// WireOut and WireIn are the connection's master→worker and
	// worker→master bytes over Elapsed (zero for in-process sessions).
	WireOut, WireIn int64
	Elapsed         time.Duration
	// TransportFault reports that the session ended on wire-level
	// corruption (a payload CRC mismatch): it is counted against the
	// worker but takes no strike — a bad NIC or path is a transport
	// fault, and the reconnect/resend machinery owns it.
	TransportFault bool
}

// Next pulls this incarnation's next task, blocking until one is
// available, and takes the session's hold on it in the same critical
// section that dispatches it. A closed cluster is the clean end of the
// feed (engine.ErrFeedDone). Pulling a task counts as a heartbeat.
//
// The worker sends the task's C tiles home once, in the Result that
// reports it finished; all-zero tiles ship down as a CZero flag instead
// of a payload.
func (s *Session) Next() (*engine.Assign, error) {
	return s.next(true)
}

// TryNext is Next without the wait: where Next would block it returns
// a nil assignment and a nil error, counting no park and taking no
// hold. Every other answer is Next's.
func (s *Session) TryNext() (*engine.Assign, error) {
	return s.next(false)
}

// next is Next, or TryNext without wait.
func (s *Session) next(wait bool) (*engine.Assign, error) {
	cl := s.cl
	cl.mu.Lock()
	task, err := s.nextLocked(wait)
	if task == nil {
		cl.mu.Unlock()
		return nil, err
	}
	blocks := cl.chunkLocked(task)
	q := cl.jobs[task.Job].q
	drop := s.dropLocked(task.Job)
	cl.mu.Unlock()
	as := &engine.Assign{
		ID: task.key(),
		I0: task.I0, J0: task.J0,
		Rows: task.Rows, Cols: task.Cols, Q: q, Steps: task.Steps,
		Blocks: blocks[:0], Owned: true, // compacted in place below
		CFlags: make([]byte, 0, len(blocks)),
		Drop:   drop,
	}
	for _, blk := range blocks {
		if engine.AllZeroBits(blk) {
			as.CFlags = append(as.CFlags, engine.CZero)
			cl.pool.Put(blk)
			continue
		}
		as.CFlags = append(as.CFlags, engine.CShip)
		as.Blocks = append(as.Blocks, blk)
	}
	return as, nil
}

// dropLocked returns the jobs the session's worker may still cache
// blocks of and that the cluster has released since, and records that
// it now ships blocks of job next. A released job is terminal and held
// by no session, so the worker finishes every task of it before the
// assignment that carries the drop.
func (s *Session) dropLocked(next JobID) []uint32 {
	var drop []uint32
	kept := s.shipped[:0]
	for _, id := range s.shipped {
		if j := s.cl.jobs[id]; j == nil || j.released {
			drop = append(drop, uint32(id))
		} else if id != next {
			kept = append(kept, id)
		}
	}
	s.shipped = append(kept, next)
	return drop
}

// nextLocked blocks until a task is dispatched to the incarnation — and
// held — or Next must return an error instead. Without wait it returns
// (nil, nil) instead of blocking.
func (s *Session) nextLocked(wait bool) (*Task, error) {
	cl, w := s.cl, s.w
	for {
		switch {
		case cl.closed:
			return nil, engine.ErrFeedDone
		case w.quarantined:
			s.nextErr = ErrWorkerQuarantined
			return nil, s.nextErr
		case w.dead:
			s.nextErr = ErrUnknownWorker
			return nil, s.nextErr
		}
		if t := cl.takeLocked(w); t != nil {
			t.started = cl.clock.Now()
			w.inflight[t.key()] = t
			w.lastSeen = t.started
			s.held[t.key()] = t
			cl.jobs[t.Job].held++
			// With speculation armed, a dispatch is itself a scheduling
			// event: an idle worker blocked here may now see a straggler
			// candidate it could duplicate (e.g. this task is the job's
			// last region and this worker is slow). Wake the waiters to
			// re-evaluate; a spurious wake just parks again.
			if cl.cfg.Adaptive.Enabled && cl.cfg.Adaptive.SpeculationFactor > 0 {
				cl.cond.Broadcast()
			}
			return t, nil
		}
		if !wait {
			return nil, nil
		}
		cl.parks++
		cl.cond.Wait()
	}
}

// Set materializes the k-th update set of a held assignment, stamped
// with the job-scoped block IDs of step task.K+k that the delta
// protocol tracks, in a Set from the cluster's pool (its consumer
// recycles it there). The set is unowned: its blocks are the job's own
// operands (for LU, the stage's negated L panel and M's U row), which
// the hold keeps alive until the task is let go of. A stage's panels
// are final once it opens (later stages only touch the trailing
// submatrix), and the A-role IDs never collide with B-role IDs, so an
// LU operand caches as safely as a matmul one.
func (s *Session) Set(id engine.AssignID, k int) (*engine.Set, error) {
	cl := s.cl
	set := cl.pool.GetSet()
	cl.mu.Lock()
	task := s.held[id]
	var err error
	if task == nil {
		err = fmt.Errorf("cluster: set for unknown assignment %v", id)
	} else {
		err = cl.setLocked(task, k, set)
	}
	cl.mu.Unlock()
	if err != nil {
		cl.pool.PutSet(set)
		return nil, err
	}
	set.K = k
	engine.StampIDs(set, uint32(task.Job), task.I0, task.J0, task.K+k)
	return set, nil
}

// Commit retires a held assignment with the Result the worker sent
// for it: its compute timing feeds the worker's profile, comm — the
// assignment's traffic — goes to its job's totals, and, in one critical
// section, the tile is verified and committed or refused and the task
// requeued (see commitLocked). A task the scheduler already reassigned
// is reported stale (ErrStaleTask). A commit waits for its job's
// accept record to be durable, so no chunk record precedes it.
func (s *Session) Commit(res *engine.Result, comm engine.CommStats) error {
	if res.ComputeNS > 0 && res.Updates > 0 {
		s.ObserveCompute(res.ID, res.Updates, res.ComputeNS)
	}
	cl := s.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if j := cl.jobs[JobID(res.ID.A)]; j != nil {
		j.comm.Add(comm)
	}
	task := s.held[res.ID]
	if task == nil {
		return ErrStaleTask
	}
	defer s.endHoldLocked(task)
	cl.awaitAcceptLocked(task.Job)
	return cl.commitLocked(s.w, task, res.Blocks)
}

// ObserveCompute folds one task's worker-side compute timing into the
// worker's live speed profile. The sample is pinned to this
// incarnation's epoch, so a stale session cannot pollute the live
// profile, while the learned profile itself survives reconnects.
func (s *Session) ObserveCompute(_ engine.AssignID, updates, elapsedNS int64) {
	s.cl.est.ObserveCompute(s.w.id, s.w.epoch, updates, time.Duration(elapsedNS))
}

// Heartbeat refreshes the incarnation's liveness; transports call it
// whenever the peer proves it is alive. It fails once the incarnation is
// dead or replaced, so the peer can be told to re-register — and a
// replaced session never refreshes its successor.
func (s *Session) Heartbeat() error {
	s.cl.mu.Lock()
	defer s.cl.mu.Unlock()
	if s.w.dead {
		return fmt.Errorf("%w: heartbeat from %q", ErrUnknownWorker, s.w.id)
	}
	s.w.lastSeen = s.cl.clock.Now()
	return nil
}

// Lost declares the incarnation dead immediately: this both requeues
// whatever the worker held and wakes any blocked Next call. It is a
// no-op once the incarnation is dead or replaced.
func (s *Session) Lost() {
	s.cl.mu.Lock()
	defer s.cl.mu.Unlock()
	if !s.w.dead {
		s.cl.loseWorkerLocked(s.w)
	}
}

// Close ends the session: the incarnation is declared lost if it is not
// already, rep is folded into the records, and the session lets go of
// every task it still holds. Call it once, when nothing can read a Set
// of the session anymore: after RunFeeder has returned (its Sends are
// done) and, on the in-process pipe, after the worker has too. It
// returns the scheduler's verdict if Next ended the session uncleanly
// before (declared dead, quarantined), so a caller can surface it
// instead of the transport closure it caused.
//
// Lifetime totals go to the worker id's current record, whichever
// incarnation that is, so operability stats survive reconnect blips and
// count every byte once. The per-incarnation session counters only take
// the report while this incarnation is still the current record, so a
// replaced session cannot pollute its successor's cold-cache hit rate.
func (s *Session) Close(rep SessionReport) error {
	cl := s.cl
	cl.mu.Lock()
	defer cl.mu.Unlock()
	verdict := s.nextErr
	if !s.w.dead {
		cl.loseWorkerLocked(s.w)
	}
	cur := cl.reg.workers[s.w.id]
	live := cur == s.w
	comm := rep.Comm
	cur.blocksShipped += comm.BlocksShipped
	cur.blocksSkipped += comm.BlocksSkipped
	cur.bytesSaved += comm.BytesSaved
	cur.wireOut += rep.WireOut
	cur.wireIn += rep.WireIn
	if live {
		cur.sessShipped += comm.BlocksShipped
		cur.sessSkipped += comm.BlocksSkipped
	}
	if rep.TransportFault {
		cl.transportFaults++
		cur.transportFaults++
	}
	cl.est.ObserveTransfer(s.w.id, s.w.epoch, rep.WireOut+rep.WireIn, rep.Elapsed)
	for _, task := range s.held {
		s.endHoldLocked(task)
	}
	return verdict
}

// endHoldLocked ends the session's hold on a task; letting go may release
// the task's terminal job.
func (s *Session) endHoldLocked(task *Task) {
	delete(s.held, task.key())
	if j := s.cl.jobs[task.Job]; j != nil {
		j.held--
		s.cl.releaseLocked(j)
	}
}
