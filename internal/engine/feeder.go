package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Feed is the scheduler behind a RunFeeder session: it produces
// assignments for one worker, materializes their update sets, and
// commits the tiles that come back. The production implementation is
// one worker incarnation of the cluster scheduler (cluster.Session);
// conformance tests script small fakes.
//
// Next blocks until an assignment is available. It returns ErrFeedDone
// (possibly wrapped) for a clean shutdown — the feeder then drains the
// worker's in-flight assignments and says Bye — and any other error to
// sever the session immediately (the peer is expected to re-register).
//
// Next and Set are called from one goroutine, Commit from another,
// concurrently with it.
//
// Commit takes one finished assignment's Result — its compute timing
// and its tile — and comm, the assignment's traffic (its C blocks down
// and up, its sets' delta accounting), and either commits the tile or
// refuses it and requeues the assignment: either way the assignment is
// no longer the session's. It reads the compute timing even for a
// Result it then refuses as stale — a losing speculative copy still
// measured this worker's real speed. ErrStaleResult (possibly wrapped)
// marks an assignment the feed no longer wants; the feeder drops it and
// frees the slot. Any other error severs the session. Commit must not
// keep the Result's blocks: the feeder recycles them.
//
// A Set error ends the session. A feed keeps an assignment's operands
// until Commit or Lost retires it, so a live session's Set finds them;
// once Lost has been called, Set may fail outright and the feeder stops
// pushing.
//
// Lost is called exactly once, when the session is over (connection
// death or drain), whatever the cause, and only after every Result the
// feeder read has been through Commit; the feed uses it to requeue
// whatever the worker still held. Calls to Next may still be blocked
// when Lost fires — Lost must unblock them.
type Feed interface {
	Next() (*Assign, error)
	Set(id AssignID, k int) (*Set, error)
	Commit(res *Result, comm CommStats) error
	Lost()
}

// FeederConfig configures one RunFeeder session.
type FeederConfig struct {
	// Slots is how many assignments are kept in flight to the worker,
	// so the next tile streams down while the current one computes.
	// Minimum 1.
	Slots int
	// Pool receives the tiles of Results once Commit has consumed them;
	// nil disables pooling.
	Pool *BlockPool
	// Mem is the worker's advertised memory in blocks; the resident
	// cache is budgeted from it (CacheBudget). 0 = unadvertised.
	Mem int
}

// outAssign is one assignment pushed to the worker and not yet
// finished: Send consumes the Assign message itself, so what the
// session needs of it is copied here.
type outAssign struct {
	id         AssignID
	rows, cols int
	comm       CommStats // C blocks shipped down and its sets' delta accounting
}

// feeder is one RunFeeder session. Under mu, the dispatcher appends to
// outq before it pushes an assignment and reads what the worker holds to
// budget each set's cache; the reader retires finished assignments.
type feeder struct {
	tr   Transport
	feed Feed
	cfg  FeederConfig
	sem  chan struct{} // one token per assignment in flight, Slots deep
	done chan struct{} // closed when the session is over
	lost chan struct{} // closed when the reader has ended, just before feed.Lost

	mu   sync.Mutex
	outq []*outAssign
}

// held returns what CacheBudget subtracts from the advertised memory:
// the Ledger of the in-flight assignments, each free slot counted as a
// tile as large as the largest in flight, since the next assignment's
// tile may reach the worker before the first Set that shrinks its cache.
func (f *feeder) held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var l Ledger
	var big *outAssign // the largest tile in flight
	for _, oa := range f.outq {
		l = l.Add(oa.rows, oa.cols)
		if big == nil || oa.rows*oa.cols > big.rows*big.cols {
			big = oa
		}
	}
	for free := cap(f.sem) - len(f.outq); big != nil && free > 0; free-- {
		l = l.Add(big.rows, big.cols)
	}
	return l.Blocks()
}

// RunFeeder drives one worker session the way the paper's one-port
// master does (§2.2, ODDOML §8.2): the worker's free slot is its only
// demand, and the master streams everything the assignment needs. A
// dispatcher goroutine — the session's only writer — keeps up to Slots
// assignments in flight, pulled from the feed, and pushes each
// assignment's update sets right behind its Task; the worker's staging
// queue and the transport's back-pressure bound what it holds. The
// caller's goroutine is the session's only reader: it commits each
// finished assignment's Result as soon as it reads it. A worker that
// still asks for a set (Request) speaks a retired dialect and is
// refused (ErrSetRequest).
//
// On a clean feed shutdown the worker's in-flight assignments drain
// before Bye lands, so a pipelined worker sees a goodbye at an
// assignment boundary, never a mid-task reset. Any transport error
// declares the worker lost (feed.Lost requeues what it held), but only
// after the last Result read from it has been committed, so a tile
// that reached the master is committed, never requeued. RunFeeder
// returns only once its dispatcher has, so when it returns no Send can
// still be reading a Set's blocks.
//
// Update sets are rewritten into deltas against the session's mirror of
// the worker's operand cache (SetBuilder) and counted — in the returned
// totals and in the comm handed to Commit — once their assignment's
// Result arrives, when the worker has resolved them. A lost session's
// mirror goes with it: the next incarnation starts cold on both ends.
func RunFeeder(tr Transport, feed Feed, cfg FeederConfig) (total CommStats, err error) {
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

	// The reader: commit each finished assignment's tile.
	for {
		m, rerr := tr.Recv()
		if rerr != nil {
			return total, nil // a clean Bye drain or connection death
		}
		switch m := m.(type) {
		case *Request:
			return total, ErrSetRequest
		case *Result:
			f.mu.Lock()
			idx := slices.IndexFunc(f.outq, func(oa *outAssign) bool { return oa.id == m.ID })
			var comm CommStats
			if idx >= 0 {
				comm = f.outq[idx].comm
				f.outq = slices.Delete(f.outq, idx, idx+1)
			}
			f.mu.Unlock()
			if idx < 0 {
				return total, fmt.Errorf("engine: result for an assignment this session does not hold")
			}
			// The worker resolved every set of the assignment before it
			// sent the Result: their accounting counts now.
			comm.CUp = int64(len(m.Blocks))
			if err := feed.Commit(m, comm); err != nil && !errors.Is(err, ErrStaleResult) {
				return total, err
			}
			total.Add(comm)
			cfg.Pool.PutAll(m.Blocks)
			cfg.Pool.PutResult(m)
			<-f.sem // slot freed: the dispatcher may fetch the next assignment
		default:
			return total, nil // a frame no worker sends: hang up
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
		// reader knows it by the time the worker can finish it.
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
