package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Feed is the scheduler behind a RunFeeder session: it produces
// assignments for one worker, materializes their update sets, and
// consumes their acknowledgements and the tiles that follow them. The
// production implementation is one worker incarnation of the cluster
// scheduler (cluster.Session); conformance tests script small fakes.
//
// Next blocks until an assignment is available. It returns ErrFeedDone
// (possibly wrapped) for a clean shutdown — the feeder then drains the
// worker's in-flight assignments and says Bye — and any other error to
// sever the session immediately (the peer is expected to re-register).
//
// Next and Set are called from one goroutine, Acked, CommitFlush and
// ObserveCompute from another, concurrently with it.
//
// The worker acknowledges a finished assignment with an empty Result,
// routed to Acked, and sends its tile right behind it in a FlushResult
// manifest, routed to CommitFlush. Acked may return ErrStaleResult
// (possibly wrapped) for an assignment the feed no longer wants; the
// feeder drops it and frees the slot. CommitFlush must tolerate IDs the
// feed no longer tracks (a refused copy's tile, or a job that failed
// while the tile was in flight) by skipping them.
//
// A Set error ends the session. A feed keeps an assignment's operands
// until Acked or Lost retires it, so a live session's Set finds them;
// once Lost has been called, Set may fail outright and the feeder stops
// pushing.
//
// ObserveCompute receives the worker-side compute timing carried on a
// Result (updates block updates took elapsedNS kernel nanoseconds),
// even for an acknowledgement the feed then refuses as stale — a losing
// speculative copy still measured this worker's real speed.
//
// Lost is called exactly once, when the session is over (connection
// death or drain), whatever the cause, and only after every frame the
// feeder read has been retired through Acked or CommitFlush; the feed
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

// outAssign is one assignment pushed to the worker and not yet
// acknowledged: Send consumes the Assign message itself, so what the
// session needs of it is copied here.
type outAssign struct {
	id         AssignID
	rows, cols int
	comm       CommStats // C blocks shipped down and its sets' delta accounting
}

// feeder is one RunFeeder session. Under mu, the dispatcher appends to
// outq before it pushes an assignment and reads what the worker holds to
// budget each set's cache; the reader retires acknowledged assignments
// and counts the dirty C blocks.
type feeder struct {
	tr   Transport
	feed Feed
	cfg  FeederConfig
	sem  chan struct{} // one token per assignment in flight, Slots deep
	done chan struct{} // closed when the session is over
	lost chan struct{} // closed when the reader has ended, just before feed.Lost

	mu    sync.Mutex
	outq  []*outAssign
	dirty int // C blocks acknowledged and not yet read back
}

// held returns the worker memory outside its operand cache, in blocks:
// the in-flight assignments' chunk footprints and the dirty C blocks,
// acknowledged tiles whose FlushResult the reader has not yet read. It
// is what CacheBudget subtracts from the advertised memory.
func (f *feeder) held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := f.dirty
	for _, oa := range f.outq {
		total += InflightFootprint(oa.rows, oa.cols)
	}
	return total
}

// RunFeeder drives one worker session the way the paper's one-port
// master does (§2.2, ODDOML §8.2): the worker's free slot is its only
// demand, and the master streams everything the assignment needs. A
// dispatcher goroutine — the session's only writer — keeps up to Slots
// assignments in flight, pulled from the feed, and pushes each
// assignment's update sets right behind its Task; the worker's staging
// queue and the transport's back-pressure bound what it holds. The
// caller's goroutine is the session's only reader: it retires each
// acknowledgement and each tile behind it as soon as it reads them. A
// worker that still asks for a set (Request) speaks a retired dialect
// and is refused (ErrSetRequest).
//
// On a clean feed shutdown the worker's in-flight assignments drain
// before Bye lands, so a pipelined worker sees a goodbye at an
// assignment boundary, never a mid-task reset. Any transport error
// declares the worker lost (feed.Lost requeues what it held), but only
// after the last frame read from it has been retired, so a tile that
// reached the master is committed, never requeued. RunFeeder
// returns only once its dispatcher has, so when it returns no Send can
// still be reading a Set's blocks.
//
// Update sets the feed materializes are rewritten into deltas against
// the session's mirror of the worker's resident operand cache (see
// SetBuilder); a set's blocks are counted in the returned stats once
// its assignment is acknowledged, because only then has the worker
// resolved it. A lost session drops the mirror with it — the worker's
// next incarnation is a new session and starts cold on both ends.
func RunFeeder(tr Transport, feed Feed, cfg FeederConfig) (fstats FeederStats, err error) {
	f := &feeder{tr: tr, feed: feed, cfg: cfg,
		sem: make(chan struct{}, max(cfg.Slots, 1)), done: make(chan struct{}), lost: make(chan struct{})}
	dispatched := make(chan error, 1)
	go func() {
		err := f.dispatch()
		tr.Close() // the writer is gone: so is the session
		dispatched <- err
	}()
	// On any session exit: hang up, then declare the worker lost. Every
	// frame read has been retired by now, so Lost requeues only what the
	// worker still held; it also wakes a dispatcher blocked in Next,
	// which is joined last.
	defer func() {
		tr.Close()
		close(f.lost)
		feed.Lost()
		close(f.done)
		if derr := <-dispatched; err == nil {
			err = derr
		}
	}()

	// The reader: retire acknowledgements, commit the tiles behind them.
	fstats.PerJob = make(map[uint32]CommStats)
	for {
		m, rerr := tr.Recv()
		if rerr != nil {
			return fstats, nil // a clean Bye drain or connection death
		}
		switch m := m.(type) {
		case *Request:
			return fstats, ErrSetRequest
		case *Result:
			f.mu.Lock()
			idx := slices.IndexFunc(f.outq, func(oa *outAssign) bool { return oa.id == m.ID })
			var comm CommStats
			if idx >= 0 {
				oa := f.outq[idx]
				f.outq = slices.Delete(f.outq, idx, idx+1)
				// The tile is dirty until its FlushResult is read.
				f.dirty += oa.rows * oa.cols
				fstats.Comm.DirtyPeak = max(fstats.Comm.DirtyPeak, int64(f.dirty))
				comm = oa.comm
			}
			f.mu.Unlock()
			if idx < 0 {
				return fstats, fmt.Errorf("engine: result for an assignment this session does not hold")
			}
			if m.ComputeNS > 0 && m.Updates > 0 {
				feed.ObserveCompute(m.ID, m.Updates, m.ComputeNS)
			}
			// An empty acknowledgement: the tile's values follow it.
			if len(m.Blocks) != 0 {
				return fstats, fmt.Errorf("engine: assignment acked with %d blocks, want 0", len(m.Blocks))
			}
			if err := feed.Acked(m.ID); err != nil && !errors.Is(err, ErrStaleResult) {
				return fstats, err
			}
			// The worker resolved every set of the assignment before it
			// acknowledged: their accounting counts now.
			fstats.Comm.Add(comm)
			jc := fstats.PerJob[m.ID.A]
			jc.Add(comm)
			fstats.PerJob[m.ID.A] = jc
			cfg.Pool.PutResult(m)
			<-f.sem // slot freed: the dispatcher may fetch the next assignment
		case *FlushResult:
			if len(m.IDs) != len(m.Blocks) {
				return fstats, fmt.Errorf("engine: flush manifest has %d ids for %d blocks",
					len(m.IDs), len(m.Blocks))
			}
			if err := feed.CommitFlush(m.IDs, m.Blocks); err != nil {
				return fstats, err
			}
			fstats.Comm.CUp += int64(len(m.IDs))
			for _, id := range m.IDs {
				if job, _, _, ok := CBlockCoords(id); ok {
					jc := fstats.PerJob[job]
					jc.CUp++
					fstats.PerJob[job] = jc
				}
			}
			f.mu.Lock()
			f.dirty -= len(m.IDs)
			f.mu.Unlock()
			if m.Owned {
				cfg.Pool.PutAll(m.Blocks)
			}
		default:
			return fstats, nil // a frame no worker sends: hang up
		}
	}
}

// dispatch is the session's writer: it fills the worker's slots with
// assignments from the feed and pushes every update set of each right
// behind its Task, in order, so the worker never asks for one. It
// returns nil when the session ends on the transport or the feed's
// verdict, and the feed's error when a set of a live session cannot be
// materialized; the caller hangs up either way.
func (f *feeder) dispatch() error {
	builder := SetBuilder{Mem: f.cfg.Mem}
	defer builder.Release()
	for {
		select {
		case f.sem <- struct{}{}:
		case <-f.done:
			return nil
		}
		as, err := f.feed.Next()
		if errors.Is(err, ErrFeedDone) {
			// Clean shutdown: let the worker's in-flight assignments
			// drain (acquire every slot; the reader releases one per
			// retired assignment) so Bye lands at a boundary.
			for held := 1; held < cap(f.sem); held++ {
				select {
				case f.sem <- struct{}{}:
				case <-f.done:
					return nil
				}
			}
			f.tr.Send(Bye{}) // the worker should not retry
			return nil
		}
		if err != nil {
			return nil // declared dead or replaced: the peer re-registers
		}
		// The assignment is in flight before its frame leaves, so the
		// reader knows it by the time the worker can acknowledge it.
		oa := &outAssign{id: as.ID, rows: as.Rows, cols: as.Cols, comm: CommStats{CDown: int64(len(as.Blocks))}}
		steps := as.Steps
		f.mu.Lock()
		f.outq = append(f.outq, oa)
		f.mu.Unlock()
		if f.tr.Send(as) != nil {
			return nil
		}
		for k := 0; k < steps; k++ {
			set, err := f.feed.Set(oa.id, k)
			if err != nil {
				select {
				case <-f.lost:
					return nil // the feed let go of a lost session's assignments
				default:
					return err
				}
			}
			builder.Stats = CommStats{}
			set = builder.Filter(set, f.held(), f.cfg.Pool)
			f.mu.Lock()
			oa.comm.Add(builder.Stats)
			f.mu.Unlock()
			if f.tr.Send(set) != nil {
				return nil
			}
		}
	}
}
