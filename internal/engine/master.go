package engine

import (
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/sim"
)

// MasterConfig configures a single-job demand-driven master run.
type MasterConfig struct {
	// Timeout bounds each wait for a worker request or result; 0 waits
	// forever (the in-process runtime, whose channels cannot stall).
	Timeout time.Duration
	// CopyAssigns copies each assignment's C blocks into pooled buffers
	// before Send. In-process transports need it (the worker mutates the
	// blocks it receives, and the master matrix must stay clean until
	// the result lands); serializing transports can share references and
	// skip the copy.
	CopyAssigns bool
	// Pool supplies the assignment copies and receives every Owned
	// result buffer once it is stored; nil disables pooling.
	Pool *BlockPool
	// DisableDelta ships full update sets (the pre-delta protocol); for
	// measurement and as an escape hatch. Default off: deltas are on.
	DisableDelta bool
	// ResidentResults switches the result path to worker-resident C
	// accumulation: assignments carry per-block C flags (zero tiles ship
	// no payload at all), workers acknowledge chunks with empty Results
	// and keep the values dirty, and the master collects everything in
	// one Flush/FlushResult exchange per worker at the end of the run.
	// Off = the dense per-chunk result protocol.
	ResidentResults bool
}

// MasterStats summarizes a master run.
type MasterStats struct {
	// Blocks is the master-side logical communication volume: blocks
	// referenced by every transfer (sent plus received), the paper's CCR
	// numerator. The delta protocol does not change it — it changes how
	// many of those blocks need payload on the wire, which Comm counts.
	Blocks int64
	// Comm is the delta protocol's accounting across all workers.
	Comm CommStats
}

// MemAdvertiser is implemented by transports whose peer advertised a
// memory capacity in blocks (the TCP hello); the master budgets that
// worker's resident cache from it. Transports without an advertisement
// get the default cache budget.
type MemAdvertiser interface {
	AdvertisedMem() int
}

// byeGrace bounds how long a master that finished cleanly waits for a
// worker to hang up after Bye before closing the link itself. Only a
// wedged peer ever costs it; a live one hangs up within a round trip.
const byeGrace = 5 * time.Second

// masterReq is one worker request surfaced by a reader goroutine.
type masterReq struct {
	worker int
	kind   ReqKind
}

// assignState is the master's record of one chunk assigned to a worker:
// the chunk, how many of its update sets have shipped, and whether it
// went out under the resident result protocol. Workers compute their
// assignments in FIFO order, so each worker's assignments form a queue
// and update sets route to the oldest incomplete one.
type assignState struct {
	chunk    *sim.Chunk
	step     int
	resident bool
}

// RunMaster distributes C ← C + A·B across the workers behind the given
// transports with the demand-driven one-port protocol of §8.2: worker
// requests are served strictly first-come first-served from a shared
// FIFO, chunks are handed out from the pool in order, update sets route
// to each worker's oldest incomplete assignment, and results retire the
// front of its queue. On return every worker has been sent Bye (best
// effort on failure) and every transport is closed — after a clean run,
// by the worker's own hang-up where it comes within byeGrace.
func RunMaster(c, a, b *matrix.Blocked, pool []*sim.Chunk, links []Transport, cfg MasterConfig) (MasterStats, error) {
	var stats MasterStats
	// The locality-aware pick removes chunks from arbitrary positions;
	// work on a copy so the caller's slice (and backing array) survives
	// the run intact.
	pool = append([]*sim.Chunk(nil), pool...)

	// Reader stage: one goroutine per worker surfaces requests into the
	// shared FIFO and results into a per-worker queue. Requests and
	// results stay on separate channels so waiting for one worker's
	// result never consumes (or reorders) another worker's queued
	// requests. The queues are deep enough that a well-behaved worker
	// never fills them (at most StageCap+3 requests and Slots results
	// outstanding), but every queue send also selects on quit so a peer
	// that pipelines unsolicited frames can't strand its reader — and
	// finish — on a full channel forever. Once quit is closed a reader
	// keeps reading and drops what it reads, until the peer hangs up or
	// the link is closed under it: see finish.
	quit := make(chan struct{})
	reqs := make(chan masterReq, len(links)*32)
	errs := make(chan error, len(links))
	// results carries *Result acks and the end-of-run *FlushResult, in
	// the order the worker sent them.
	results := make([]chan Msg, len(links))
	readersDone := make(chan struct{}, len(links))
	for w, tr := range links {
		results[w] = make(chan Msg, 8)
		go func(w int, tr Transport) {
			defer func() { readersDone <- struct{}{} }()
			for {
				m, err := tr.Recv()
				if err != nil {
					errs <- err
					return
				}
				switch m := m.(type) {
				case *Request:
					select {
					case reqs <- masterReq{worker: w, kind: m.Kind}:
					case <-quit:
					}
				case *Result, *FlushResult:
					select {
					case results[w] <- m:
					case <-quit:
					}
				default:
					errs <- fmt.Errorf("engine: master got unexpected %T from worker %d", m, w)
					return
				}
			}
		}(w, tr)
	}
	var collectComm func()
	// finish ends the run: Bye to every worker, links closed, readers
	// joined. After a clean run the master does not hang up first. A
	// worker it no longer needs may still have frames in flight (a slow
	// one's Hello and first request, when the fast ones finished a small
	// job without it); closing a socket with those unread resets the
	// connection, the worker's write fails, and it reports an error for
	// a run that succeeded. So the readers keep draining, each worker
	// hangs up on reading Bye, and only a worker that has not within
	// byeGrace is closed on. A failed run closes at once: its workers'
	// errors are no misreport.
	finish := func(clean bool) {
		close(quit)
		for _, tr := range links {
			tr.Send(Bye{}) // best effort: the peer may already be gone
		}
		joined := 0
		if clean {
			grace := time.NewTimer(byeGrace)
		hangups:
			for joined < len(links) {
				select {
				case <-readersDone:
					joined++
				case <-grace.C:
					break hangups
				}
			}
			grace.Stop()
		}
		for _, tr := range links {
			tr.Close()
		}
		for ; joined < len(links); joined++ {
			<-readersDone
		}
		collectComm()
	}
	fail := func(err error) (MasterStats, error) {
		finish(false)
		return stats, err
	}

	// One reusable timer arms a per-wait deadline without allocating per
	// message (a nil channel when Timeout is 0 never fires).
	var timer *time.Timer
	arm := func() <-chan time.Time {
		if cfg.Timeout <= 0 {
			return nil
		}
		if timer == nil {
			timer = time.NewTimer(cfg.Timeout)
		} else {
			timer.Reset(cfg.Timeout)
		}
		return timer.C
	}
	disarm := func() {
		if timer != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}

	assigned := make([][]*assignState, len(links))
	// One delta builder and one locality cursor per worker session: the
	// builder mirrors the worker's resident operand cache, the cursor
	// steers chunk dispatch along the reuse-optimal tour (PickChunk) so
	// consecutive chunks actually share operands. dirty mirrors, per
	// worker, which C blocks the worker holds accumulated but unflushed.
	builders := make([]SetBuilder, len(links))
	lastChunk := make([]*sim.Chunk, len(links))
	dirty := make([]map[uint64]struct{}, len(links))
	dirtyNow := int64(0)
	for w := range links {
		builders[w].Disable = cfg.DisableDelta
		dirty[w] = make(map[uint64]struct{})
	}
	collectComm = func() {
		for w := range builders {
			stats.Comm.Add(builders[w].Stats)
			builders[w].Release()
		}
	}
	remaining := len(pool)
	for remaining > 0 {
		var rq masterReq
		select {
		case rq = <-reqs:
			disarm()
		case err := <-errs:
			return fail(err)
		case <-arm():
			return fail(fmt.Errorf("engine: timed out waiting for worker requests"))
		}
		w := rq.worker
		switch rq.kind {
		case ReqAssign:
			if len(pool) == 0 {
				continue // pool drained; the worker idles until Bye
			}
			idx := PickChunk(pool, lastChunk[w])
			ch := pool[idx]
			pool = append(pool[:idx], pool[idx+1:]...)
			lastChunk[w] = ch
			as := MakeAssign(c, ch, cfg)
			assigned[w] = append(assigned[w], &assignState{chunk: ch, resident: len(as.CFlags) > 0})
			stats.Comm.CDown += int64(len(as.Blocks))
			if err := links[w].Send(as); err != nil {
				return fail(err)
			}
			stats.Blocks += int64(ch.Blocks)
		case ReqSet:
			var cur *assignState
			inflight := 0
			for _, as := range assigned[w] {
				inflight += InflightFootprint(as.chunk.Rows, as.chunk.Cols)
				if cur == nil && as.step < len(as.chunk.Steps) {
					cur = as
				}
			}
			if cur == nil {
				return fail(fmt.Errorf("engine: protocol violation, set request from worker %d with no open assignment", w))
			}
			// The peer's hello (if its transport carries one) precedes its
			// first request on the connection, so by now the advertised
			// memory is known; re-reading it per set costs nothing.
			if ma, ok := links[w].(MemAdvertiser); ok {
				builders[w].Mem = ma.AdvertisedMem()
			}
			set := builders[w].Filter(MakeSet(a, b, cur.chunk, cur.step, cfg.Pool), inflight, cfg.Pool)
			if err := links[w].Send(set); err != nil {
				return fail(err)
			}
			stats.Blocks += int64(cur.chunk.Rows + cur.chunk.Cols)
			cur.step++
		case ReqResult:
			if len(assigned[w]) == 0 {
				return fail(fmt.Errorf("engine: protocol violation, result pickup from worker %d with nothing assigned", w))
			}
			front := assigned[w][0]
			assigned[w] = assigned[w][1:]
			var m Msg
			select {
			case m = <-results[w]:
				disarm()
			case err := <-errs:
				return fail(err)
			case <-arm():
				return fail(fmt.Errorf("engine: timed out waiting for result"))
			}
			res, ok := m.(*Result)
			if !ok {
				return fail(fmt.Errorf("engine: master got %T from worker %d, want a result", m, w))
			}
			if front.resident {
				// An empty acknowledgement: the values stay dirty on the
				// worker until the end-of-run flush.
				if len(res.Blocks) != 0 {
					return fail(fmt.Errorf("engine: resident chunk %d acked with %d blocks, want 0",
						front.chunk.ID, len(res.Blocks)))
				}
				cfg.Pool.PutResult(res)
				ch := front.chunk
				for i := 0; i < ch.Rows; i++ {
					for j := 0; j < ch.Cols; j++ {
						dirty[w][CBlockID(0, ch.I0+i, ch.J0+j)] = struct{}{}
					}
				}
				dirtyNow += int64(ch.Blocks)
				if dirtyNow > stats.Comm.DirtyPeak {
					stats.Comm.DirtyPeak = dirtyNow
				}
			} else {
				if err := StoreResult(c, front.chunk, res, cfg.Pool); err != nil {
					return fail(err)
				}
				stats.Comm.CUp += int64(front.chunk.Blocks)
			}
			stats.Blocks += int64(front.chunk.Blocks)
			remaining--
		default:
			return fail(fmt.Errorf("engine: unknown request kind %d", rq.kind))
		}
	}
	// Flush phase: every chunk is acked, so each worker's dirty C blocks
	// are final — collect them in one FlushResult per worker and commit
	// by overwrite (the worker continued the exact accumulation chain in
	// place, so the values are bit-identical to dense per-chunk results).
	for w := range links {
		if len(dirty[w]) == 0 {
			continue
		}
		if err := links[w].Send(Flush{}); err != nil {
			return fail(err)
		}
		var m Msg
		select {
		case m = <-results[w]:
			disarm()
		case err := <-errs:
			return fail(err)
		case <-arm():
			return fail(fmt.Errorf("engine: timed out waiting for flush from worker %d", w))
		}
		fr, ok := m.(*FlushResult)
		if !ok {
			return fail(fmt.Errorf("engine: master got %T from worker %d, want a flush result", m, w))
		}
		stats.Comm.CUp += int64(len(fr.IDs))
		stats.Comm.FlushBlocks += int64(len(fr.IDs))
		if err := commitFlush(c, fr, dirty[w], cfg.Pool); err != nil {
			return fail(err)
		}
		if len(dirty[w]) != 0 {
			return fail(fmt.Errorf("engine: worker %d flushed but left %d blocks dirty", w, len(dirty[w])))
		}
	}
	finish(true)
	return stats, nil
}

// commitFlush validates a FlushResult against the worker's dirty set
// and writes each block back into C, consuming the message's buffers.
func commitFlush(c *matrix.Blocked, fr *FlushResult, dirty map[uint64]struct{}, pool *BlockPool) error {
	if len(fr.IDs) != len(fr.Blocks) {
		return fmt.Errorf("engine: flush manifest has %d ids for %d blocks", len(fr.IDs), len(fr.Blocks))
	}
	q := c.Q
	for n, id := range fr.IDs {
		job, i, j, ok := CBlockCoords(id)
		if !ok || job != 0 {
			return fmt.Errorf("engine: flush manifest entry %#x is not a job-0 C block", id)
		}
		if _, want := dirty[id]; !want {
			return fmt.Errorf("engine: flushed C block (%d,%d) was not dirty", i, j)
		}
		if len(fr.Blocks[n]) != q*q {
			return fmt.Errorf("engine: flushed block has %d elements, want %d", len(fr.Blocks[n]), q*q)
		}
		copy(c.Block(i, j).Data, fr.Blocks[n])
		delete(dirty, id)
	}
	if fr.Owned {
		pool.PutAll(fr.Blocks)
	}
	return nil
}

// MakeAssign builds the Assign for a chunk: pooled copies of the C tile
// when CopyAssigns (in-process transports), shared references otherwise.
// With ResidentResults the tile is compacted instead: per-block C flags
// say how the worker materializes each block, and only non-zero blocks
// ship payload (a zero tile costs nothing on the wire). Tiles whose
// coordinates overflow the packed C-block ID fall back to the dense
// protocol — degrading bandwidth, never correctness. It is exported for
// the static plan-replay master (internal/mw), which materializes the
// same transfers in a fixed order instead of on demand.
func MakeAssign(c *matrix.Blocked, ch *sim.Chunk, cfg MasterConfig) *Assign {
	as := cfg.Pool.GetAssign()
	as.ID = AssignID{A: uint32(ch.ID)}
	as.I0, as.J0 = ch.I0, ch.J0
	as.Rows, as.Cols, as.Q, as.Steps = ch.Rows, ch.Cols, c.Q, len(ch.Steps)
	resident := cfg.ResidentResults &&
		CBlockID(0, ch.I0+ch.Rows-1, ch.J0+ch.Cols-1) != 0
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			src := c.Block(ch.I0+i, ch.J0+j).Data
			if resident {
				if AllZeroBits(src) {
					as.CFlags = append(as.CFlags, CZero)
					continue
				}
				as.CFlags = append(as.CFlags, CShip)
			}
			if cfg.CopyAssigns {
				as.Blocks = append(as.Blocks, cfg.Pool.GetCopy(src))
			} else {
				as.Blocks = append(as.Blocks, src)
			}
		}
	}
	as.Owned = cfg.CopyAssigns
	return as
}

// MakeSet builds the k-th update set for a chunk as shared references:
// the operands are read-only, so no transport needs a copy. The Set
// itself is recycled through the pool by its consumer. The manifest is
// stamped with single-job (job 0) block IDs; a SetBuilder turns it into
// a delta.
func MakeSet(a, b *matrix.Blocked, ch *sim.Chunk, k int, pool *BlockPool) *Set {
	set := pool.GetSet()
	set.K = k
	for i := 0; i < ch.Rows; i++ {
		set.A = append(set.A, a.Block(ch.I0+i, k).Data)
	}
	for j := 0; j < ch.Cols; j++ {
		set.B = append(set.B, b.Block(k, ch.J0+j).Data)
	}
	StampIDs(set, 0, ch, k)
	return set
}

// StoreResult writes a returned tile back into C and releases the
// buffers of an owned result — the explicit release on result-ack.
func StoreResult(c *matrix.Blocked, ch *sim.Chunk, res *Result, pool *BlockPool) error {
	q := c.Q
	if len(res.Blocks) != ch.Rows*ch.Cols {
		return fmt.Errorf("engine: result has %d blocks, want %d", len(res.Blocks), ch.Rows*ch.Cols)
	}
	for _, blk := range res.Blocks {
		if len(blk) != q*q {
			return fmt.Errorf("engine: result block has %d elements, want %d", len(blk), q*q)
		}
	}
	for i := 0; i < ch.Rows; i++ {
		for j := 0; j < ch.Cols; j++ {
			copy(c.Block(ch.I0+i, ch.J0+j).Data, res.Blocks[i*ch.Cols+j])
		}
	}
	// The store consumes the result: release its buffers and recycle the
	// message itself.
	if res.Owned {
		pool.PutAll(res.Blocks)
	}
	res.Blocks = nil
	pool.PutResult(res)
	return nil
}
