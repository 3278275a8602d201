package engine

import (
	"errors"
	"fmt"
)

// Feed is the scheduler behind a RunFeeder session: it produces
// assignments for one worker, materializes their update sets, and
// consumes their acknowledgements and flushes. The production
// implementation is one worker incarnation of the cluster scheduler
// (cluster.Session); conformance tests script small fakes.
//
// Next blocks until an assignment is available. It returns ErrFeedDone
// (possibly wrapped) for a clean shutdown — the feeder then drains the
// worker's in-flight assignments and says Bye — and any other error to
// sever the session immediately (the peer is expected to re-register).
// It may also return ErrFlushWanted (possibly wrapped): the feed wants
// the worker's dirty C blocks before it hands out more work. The feeder
// sends Flush and calls Next again; the feed must not return
// ErrFlushWanted again until the flush is committed (or the session is
// lost), or the pair would spin.
//
// The worker acknowledges a finished assignment with an empty Result,
// routed to Acked, and its accumulated blocks arrive later in a
// FlushResult manifest, routed to CommitFlush. Acked may return
// ErrStaleResult (possibly wrapped) for an assignment the feed no longer
// wants; the feeder drops it and frees the slot. CommitFlush must
// tolerate IDs the feed no longer tracks (a job that failed while the
// flush was in flight) by skipping them, and must accept an empty
// manifest — the feeder always reports the flush answer, because the
// feed gates dispatch on it.
//
// Set may return ErrStaleAssign (possibly wrapped) once the feed has let
// go of a revoked assignment's operands; the feeder sends a filler set.
//
// ObserveCompute receives the worker-side compute timing carried on a
// Result (updates block updates took elapsedNS kernel nanoseconds),
// even for an acknowledgement the feed then refuses as stale — a losing
// speculative copy still measured this worker's real speed.
//
// Lost is called exactly once, as soon as the feeder knows the session
// is over (connection death or drain), whatever the cause; the feed
// uses it to requeue whatever the worker still held. Calls to Next may
// still be blocked when Lost fires — Lost must unblock them.
type Feed interface {
	Next() (*Assign, error)
	Set(id AssignID, k int) (*Set, error)
	Acked(id AssignID) error
	CommitFlush(ids []uint64, blocks [][]float64) error
	ObserveCompute(id AssignID, updates, elapsedNS int64)
	Lost()
}

// FeederConfig configures one RunFeeder session.
type FeederConfig struct {
	// Slots is how many assignments are kept in flight to the worker,
	// so the next tile streams down while the current one computes.
	// Minimum 1.
	Slots int
	// Pool receives the buffers of owned flush manifests once
	// CommitFlush has consumed them; nil disables pooling.
	Pool *BlockPool
	// Mem is the worker's advertised memory in blocks; the resident
	// cache is budgeted from it (CacheBudget). 0 = unadvertised.
	Mem int
}

// FeederStats summarizes one feeder session's delta accounting, in
// total and attributed per job (AssignID.A is the job number).
type FeederStats struct {
	Comm   CommStats
	PerJob map[uint32]CommStats
}

// outAssign is one assignment shipped to the worker and not yet
// retired: the dispatcher appends, the event loop streams its sets in
// oldest-incomplete-first order and retires it on its acknowledgement.
// It copies the metadata out of the Assign message because Send
// consumes the message itself — a serializing transport (or the
// receiving worker, on the in-process pipe) recycles it the moment it
// is delivered.
type outAssign struct {
	id         AssignID
	steps      int
	rows, cols int
	q          int
	sent       int // update sets streamed so far
	shipped    int // C payload blocks its frame carried down
}

// outqFootprint sums the in-flight assignments' chunk footprints — what
// CacheBudget subtracts from the worker's advertised memory.
func outqFootprint(outq []*outAssign) int {
	total := 0
	for _, oa := range outq {
		total += InflightFootprint(oa.rows, oa.cols)
	}
	return total
}

// feederEvent is one worker message surfaced by the reader goroutine.
type feederEvent struct {
	req    bool
	result *Result
	flush  *FlushResult
}

// RunFeeder drives one worker session: a dispatcher goroutine keeps up
// to Slots assignments in flight (pulled from the feed), the reader
// surfaces worker frames, and the event loop routes set requests to the
// oldest incomplete assignment and retires acknowledgements — the paper's
// demand-driven staging discipline (§8.2), with the scheduler deciding
// what each assignment is.
//
// On a clean feed shutdown the worker's in-flight assignments drain
// before Bye lands, so a pipelined worker sees a goodbye at an
// assignment boundary, never a mid-task reset. Any transport error
// declares the worker lost (feed.Lost requeues what it held).
//
// Update sets the feed materializes are rewritten into deltas against
// the session's mirror of the worker's resident operand cache (see
// SetBuilder); the returned stats report the blocks skipped. A lost
// session drops the mirror with it — the worker's next incarnation is a
// new session and starts cold on both ends.
func RunFeeder(tr Transport, feed Feed, cfg FeederConfig) (fstats FeederStats, err error) {
	slots := cfg.Slots
	if slots < 1 {
		slots = 1
	}
	builder := SetBuilder{Mem: cfg.Mem}
	defer func() {
		fstats.Comm = builder.Stats
		builder.Release()
	}()

	events := make(chan feederEvent, 16)
	// On any session exit, drain until the reader closes the channel
	// (Close right after unblocks it), so a peer that pipelined extra
	// frames can't strand the reader on a full channel forever.
	defer func() {
		tr.Close()
		go func() {
			for range events {
			}
		}()
	}()
	go func() {
		defer close(events)
		// A dead transport is a lost worker, declared immediately: this
		// both requeues whatever the worker held and wakes the
		// dispatcher goroutine out of a blocked feed.Next.
		defer feed.Lost()
		for {
			m, err := tr.Recv()
			if err != nil {
				return
			}
			switch m := m.(type) {
			case *Request:
				events <- feederEvent{req: true}
			case *Result:
				events <- feederEvent{result: m}
			case *FlushResult:
				events <- feederEvent{flush: m}
			default:
				tr.Close()
				return
			}
		}
	}()

	// Dispatcher: fill the worker's slots. Each assignment is pushed to
	// the assigned channel BEFORE its frame is sent, so by the time the
	// worker reacts to it, the event loop can learn about it by
	// draining the channel.
	assigned := make(chan *outAssign, slots)
	sem := make(chan struct{}, slots)
	sessDone := make(chan struct{})
	defer close(sessDone)
	go func() {
		for {
			select {
			case sem <- struct{}{}:
			case <-sessDone:
				return
			}
			as, err := feed.Next()
			if errors.Is(err, ErrFlushWanted) {
				// The feed wants the worker's dirty C blocks before more
				// work: relay the flush and retry. The token goes back —
				// no assignment went out — and the feed blocks the next
				// Next until the commit lands, so the pair cannot spin.
				if tr.Send(Flush{}) != nil {
					tr.Close()
					return
				}
				<-sem
				continue
			}
			if errors.Is(err, ErrFeedDone) {
				// Clean shutdown: let the worker's in-flight assignments
				// drain (acquire every slot; the event loop releases one
				// per retired assignment) so Bye lands at a boundary.
				held := 1 // the token acquired at the top of this loop
				for held < slots {
					select {
					case sem <- struct{}{}:
						held++
					case <-sessDone:
						return
					}
				}
				tr.Send(Bye{}) // the worker should not retry
				tr.Close()
				return
			}
			if err != nil {
				tr.Close() // declared dead or replaced: the peer re-registers
				return
			}
			select {
			case assigned <- &outAssign{id: as.ID, steps: as.Steps,
				rows: as.Rows, cols: as.Cols, q: as.Q, shipped: len(as.Blocks)}:
			case <-sessDone:
				return
			}
			if err := tr.Send(as); err != nil {
				tr.Close()
				return
			}
		}
	}()

	// Event loop: route set requests to the oldest incomplete
	// assignment, retire acknowledgements, commit flushes.
	var outq []*outAssign
	var dirtyNow int64
	updatePerJob := func(job uint32, f func(*CommStats)) {
		if fstats.PerJob == nil {
			fstats.PerJob = make(map[uint32]CommStats)
		}
		jc := fstats.PerJob[job]
		f(&jc)
		fstats.PerJob[job] = jc
	}
	drainAssigned := func() {
		for {
			select {
			case oa := <-assigned:
				outq = append(outq, oa)
			default:
				return
			}
		}
	}
	for ev := range events {
		drainAssigned()
		switch {
		case ev.req:
			var cur *outAssign
			for _, oa := range outq {
				if oa.sent < oa.steps {
					cur = oa
					break
				}
			}
			if cur == nil {
				return fstats, fmt.Errorf("engine: protocol violation: set request with no sets left to stream")
			}
			set, err := feed.Set(cur.id, cur.sent)
			if errors.Is(err, ErrStaleAssign) {
				set, err = fillerSet(cur, cfg.Pool), nil
			}
			if err != nil {
				return fstats, err
			}
			before := builder.Stats
			set = builder.Filter(set, outqFootprint(outq), cfg.Pool)
			updatePerJob(cur.id.A, func(jc *CommStats) {
				jc.SetsSent += builder.Stats.SetsSent - before.SetsSent
				jc.BlocksShipped += builder.Stats.BlocksShipped - before.BlocksShipped
				jc.BlocksSkipped += builder.Stats.BlocksSkipped - before.BlocksSkipped
				jc.BytesSaved += builder.Stats.BytesSaved - before.BytesSaved
			})
			if err := tr.Send(set); err != nil {
				return fstats, err
			}
			cur.sent++
		case ev.result != nil:
			res := ev.result
			idx := -1
			for i, oa := range outq {
				if oa.id == res.ID {
					idx = i
					break
				}
			}
			if idx < 0 {
				return fstats, fmt.Errorf("engine: result for an assignment this session does not hold")
			}
			oa := outq[idx]
			if res.ComputeNS > 0 && res.Updates > 0 {
				feed.ObserveCompute(res.ID, res.Updates, res.ComputeNS)
			}
			// An empty acknowledgement: the tile's values stay dirty on
			// the worker until a flush collects them.
			if len(res.Blocks) != 0 {
				return fstats, fmt.Errorf("engine: assignment acked with %d blocks, want 0", len(res.Blocks))
			}
			if err := feed.Acked(res.ID); err != nil && !errors.Is(err, ErrStaleResult) {
				return fstats, err
			}
			dirtyNow += int64(oa.rows * oa.cols)
			builder.Stats.DirtyPeak = max(builder.Stats.DirtyPeak, dirtyNow)
			builder.Stats.CDown += int64(oa.shipped)
			updatePerJob(res.ID.A, func(jc *CommStats) { jc.CDown += int64(oa.shipped) })
			cfg.Pool.PutResult(res)
			outq = append(outq[:idx], outq[idx+1:]...)
			<-sem // slot freed: the dispatcher may fetch the next assignment
		case ev.flush != nil:
			fr := ev.flush
			if len(fr.IDs) != len(fr.Blocks) {
				return fstats, fmt.Errorf("engine: flush manifest has %d ids for %d blocks",
					len(fr.IDs), len(fr.Blocks))
			}
			// Commit even an empty manifest: the feed gates dispatch on
			// the flush answer, not just on the blocks in it.
			if err := feed.CommitFlush(fr.IDs, fr.Blocks); err != nil {
				return fstats, err
			}
			builder.Stats.CUp += int64(len(fr.IDs))
			for _, id := range fr.IDs {
				if job, _, _, ok := CBlockCoords(id); ok {
					updatePerJob(job, func(jc *CommStats) { jc.CUp++ })
				}
			}
			dirtyNow -= int64(len(fr.IDs))
			if fr.Owned {
				cfg.Pool.PutAll(fr.Blocks)
			}
		}
	}
	// events closed: the session ended (clean Bye drain or connection
	// death); the reader already declared the worker lost, requeuing
	// everything still in outq.
	return fstats, nil
}

// fillerSet builds the update set a revoked assignment is still owed
// when its operands are gone (ErrStaleAssign): zeroed blocks of the
// right shape under untracked IDs, so neither end's operand cache
// changes and the builder still announces the capacity both mirror.
func fillerSet(oa *outAssign, pool *BlockPool) *Set {
	set := pool.GetSet()
	set.K, set.Owned = oa.sent, true
	zero := func() []float64 {
		blk := pool.Get(oa.q * oa.q)
		clear(blk)
		return blk
	}
	for i := 0; i < oa.rows; i++ {
		set.A, set.AIDs = append(set.A, zero()), append(set.AIDs, 0)
	}
	for j := 0; j < oa.cols; j++ {
		set.B, set.BIDs = append(set.B, zero()), append(set.BIDs, 0)
	}
	return set
}
