// Conformance suite: one table of lifecycle, ordering, prefetch,
// staging and kill-mid-chunk cases, executed against BOTH transports —
// the in-process channel pipe (engine.Pipe) and the TCP framing
// (internal/netmw's transports) — so the two runtimes can never drift
// apart again: any behavioral difference between "the same engine over
// channels" and "the same engine over sockets" fails here first.
package engine_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

// transportFleet abstracts "n connected master/worker transport pairs"
// over the two implementations.
type transportFleet func(t *testing.T, n, q int, pool *engine.BlockPool) (masters, workers []engine.Transport)

func pipeFleet(t *testing.T, n, q int, pool *engine.BlockPool) (masters, workers []engine.Transport) {
	t.Helper()
	for i := 0; i < n; i++ {
		m, w := engine.Pipe()
		masters = append(masters, m)
		workers = append(workers, w)
	}
	return masters, workers
}

func tcpFleet(t *testing.T, n, q int, pool *engine.BlockPool) (masters, workers []engine.Transport) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, n)
	go func() {
		for i := 0; i < n; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, netmw.NewWorkerTransport(conn, pool))
		masters = append(masters, netmw.NewMasterTransport(<-accepted, q, pool))
	}
	return masters, workers
}

var fleets = []struct {
	name  string
	build transportFleet
}{
	{"channel", pipeFleet},
	{"tcp", tcpFleet},
}

// buildInputs creates deterministic A, B, C and the expected C + A·B.
func buildInputs(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 21)
	matrix.DeterministicFill(bd, 22)
	matrix.DeterministicFill(cd, 23)
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

// advertisedMem makes a master-side transport advertise a worker memory
// (engine.MemAdvertiser), so a conformance row can run the delta
// protocol at a chosen cache budget on either fleet.
type advertisedMem struct {
	engine.Transport
	mem int
}

func (a advertisedMem) AdvertisedMem() int { return a.mem }

// runEngine drives one full multiply through RunMaster + n RunWorker
// goroutines over the given fleet. mem > 0 is the memory every worker
// advertises, in blocks.
func runEngine(t *testing.T, fleet transportFleet, r, tt, s, q int, workers int,
	wcfg engine.WorkerConfig, mem int, pooled, copyAssigns, resident bool) (c, want *matrix.Blocked, reports []engine.WorkerReport, masterErr error) {
	t.Helper()
	a, b, c, want := buildInputs(t, r, tt, s, q)
	var pool *engine.BlockPool
	if pooled {
		pool = engine.NewBlockPool()
	}
	masters, workerEnds := fleet(t, workers, q, pool)
	if mem > 0 {
		for w := range masters {
			masters[w] = advertisedMem{masters[w], mem}
		}
	}
	reports = make([]engine.WorkerReport, workers)
	// In a kill case the healthy workers start only once the doomed one
	// is gone: alone on the grid it is certain to be handed the
	// assignment that severs it, whatever the scheduler does with two
	// cores.
	doomedGone := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := wcfg
			cfg.Pool = pool
			if w == 0 {
				defer close(doomedGone)
			} else if cfg.FailAfter > 0 {
				cfg.FailAfter = 0 // only worker 0 is doomed
				<-doomedGone
			}
			reports[w], _ = engine.RunWorker(workerEnds[w], cfg)
		}(w)
	}
	pr := core.Problem{R: r, S: s, T: tt, Q: q}
	_, chunks := homog.ChunkGrid(pr, 2)
	_, masterErr = engine.RunMaster(c, a, b, chunks, masters, engine.MasterConfig{
		Timeout: 30 * time.Second, CopyAssigns: copyAssigns, Pool: pool,
		ResidentResults: resident,
	})
	wg.Wait()
	return c, want, reports, masterErr
}

// TestEngineConformance is the cross-transport table. Every case runs
// on the channel pipe and on TCP framing; lifecycle cases must produce
// the oracle product and the exact update count, the kill case must
// fail the master (single-job runs have no recovery) without hanging.
func TestEngineConformance(t *testing.T) {
	demand := engine.WorkerConfig{
		StageCap: 1, Slots: 1, Cores: 1,
		PullAssigns: true, PullSets: true, PullResults: true,
	}
	cases := []struct {
		name        string
		r, tt, s, q int
		workers     int
		mem         int // advertised worker memory in blocks; 0 = unadvertised
		mod         func(*engine.WorkerConfig)
		pooled      bool
		resident    bool
		wantErr     bool
	}{
		{name: "lifecycle-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true},
		{name: "lifecycle-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "ordering-staged-sets", r: 5, tt: 6, s: 5, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "prefetch-double-buffer", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		{name: "prefetch-single-worker-drains-pool", r: 5, tt: 2, s: 7, q: 4, workers: 1, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "multicore-kernel", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Cores = 4; c.Slots = 2; c.StageCap = 2 }},
		{name: "ragged-chunks", r: 5, tt: 2, s: 7, q: 4, workers: 2, pooled: true},
		{name: "more-workers-than-chunks", r: 2, tt: 2, s: 2, q: 4, workers: 5, pooled: true},
		{name: "unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		// Memory just above one 2×2 footprint (12 blocks at the cache
		// staging depth) with two tiles in flight: the announced cache
		// capacity drops to 0, below every Set's own four tracked blocks.
		{name: "tight-memory-two-slots", r: 6, tt: 4, s: 6, q: 4, workers: 2, mem: 13, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		{name: "kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, wantErr: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1 }},
		// The single-flush result path: C tiles stay resident on the
		// workers and come back once through flush manifests at job end.
		{name: "resident-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true, resident: true},
		{name: "resident-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true, resident: true,
			mod: func(c *engine.WorkerConfig) { c.StageCap = 2 }},
		{name: "resident-prefetch", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, resident: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2; c.StageCap = 2 }},
		{name: "resident-unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false, resident: true},
		{name: "resident-kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			resident: true, wantErr: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1 }},
	}
	for _, fl := range fleets {
		for _, tc := range cases {
			t.Run(fl.name+"/"+tc.name, func(t *testing.T) {
				wcfg := demand
				if tc.mod != nil {
					tc.mod(&wcfg)
				}
				// The channel path must copy assignments (the worker
				// mutates what it receives); TCP serializes and shares.
				copyAssigns := fl.name == "channel"
				c, want, reports, err := runEngine(t, fl.build, tc.r, tc.tt, tc.s, tc.q,
					tc.workers, wcfg, tc.mem, tc.pooled, copyAssigns, tc.resident)
				if tc.wantErr {
					if err == nil {
						t.Fatal("doomed worker did not fail the master")
					}
					return
				}
				if err != nil {
					t.Fatalf("master: %v", err)
				}
				if !c.Equal(want, 0) {
					t.Fatal("product not bit-exact")
				}
				var updates, flushed int64
				for _, rep := range reports {
					updates += rep.Updates
					flushed += rep.Flushed
				}
				if want := int64(tc.r) * int64(tc.tt) * int64(tc.s); updates != want {
					t.Fatalf("updates = %d, want %d", updates, want)
				}
				if tc.resident {
					// Every C tile flows back exactly once, through a flush.
					if want := int64(tc.r) * int64(tc.s); flushed != want {
						t.Fatalf("flushed = %d blocks, want every C tile once (%d)", flushed, want)
					}
				} else if flushed != 0 {
					t.Fatalf("dense run flushed %d blocks", flushed)
				}
			})
		}
	}
}

// TestEngineBitExactAcrossTransports pins the strongest invariant: the
// channel run, the TCP run, the pooled and the unpooled run, with dense
// per-chunk results or the resident single-flush path, all produce
// bit-identical floats (the engine fixes the accumulation order;
// transports only move bytes, and a flush commits the same serial FMA
// chain a dense result would have carried).
func TestEngineBitExactAcrossTransports(t *testing.T) {
	cfg := engine.WorkerConfig{
		StageCap: 2, Slots: 2, Cores: 2,
		PullAssigns: true, PullSets: true, PullResults: true,
	}
	var results []*matrix.Dense
	for _, fl := range fleets {
		for _, pooled := range []bool{true, false} {
			for _, resident := range []bool{false, true} {
				c, _, _, err := runEngine(t, fl.build, 6, 4, 6, 4, 2, cfg, 0, pooled, fl.name == "channel", resident)
				if err != nil {
					t.Fatalf("%s pooled=%v resident=%v: %v", fl.name, pooled, resident, err)
				}
				results = append(results, c.Assemble())
			}
		}
	}
	first := results[0]
	for i, d := range results[1:] {
		for r := 0; r < first.Rows; r++ {
			for cc := 0; cc < first.Cols; cc++ {
				if first.At(r, cc) != d.At(r, cc) {
					t.Fatalf("run %d differs at (%d,%d): %g != %g", i+1, r, cc, d.At(r, cc), first.At(r, cc))
				}
			}
		}
	}
}

// scriptedFeed is a minimal Feed over a fixed task list, for driving
// RunFeeder through both transports without a cluster.
type scriptedFeed struct {
	mu      sync.Mutex
	c, a, b *matrix.Blocked
	chunks  []*engineChunk
	next    int
	done    map[engine.AssignID]*engineChunk
	lost    bool
	// stale marks revoked assignments whose operands the feed let go of:
	// Set answers ErrStaleAssign, Complete refuses the result as stale.
	stale   map[engine.AssignID]bool
	wake    chan struct{} // closed by Lost to unblock Next
	allDone chan struct{} // closed when every chunk completed
}

type engineChunk struct {
	id         engine.AssignID
	i0, j0     int
	rows, cols int
	steps      int
}

func newScriptedFeed(c, a, b *matrix.Blocked, mu int) *scriptedFeed {
	pr := core.Problem{R: c.BR, S: c.BC, T: a.BC, Q: c.Q}
	_, pool := homog.ChunkGrid(pr, mu)
	f := &scriptedFeed{c: c, a: a, b: b,
		done: make(map[engine.AssignID]*engineChunk),
		wake: make(chan struct{}), allDone: make(chan struct{})}
	for _, ch := range pool {
		f.chunks = append(f.chunks, &engineChunk{
			id: engine.AssignID{A: uint32(ch.ID)}, i0: ch.I0, j0: ch.J0,
			rows: ch.Rows, cols: ch.Cols, steps: len(ch.Steps),
		})
	}
	return f
}

func (f *scriptedFeed) Next() (*engine.Assign, error) {
	f.mu.Lock()
	if f.next < len(f.chunks) {
		ch := f.chunks[f.next]
		f.next++
		blocks := make([][]float64, ch.rows*ch.cols)
		for i := 0; i < ch.rows; i++ {
			for j := 0; j < ch.cols; j++ {
				src := f.c.Block(ch.i0+i, ch.j0+j).Data
				buf := make([]float64, len(src))
				copy(buf, src)
				blocks[i*ch.cols+j] = buf
			}
		}
		f.mu.Unlock()
		return &engine.Assign{
			ID: ch.id, I0: ch.i0, J0: ch.j0,
			Rows: ch.rows, Cols: ch.cols, Q: f.c.Q, Steps: ch.steps,
			Blocks: blocks, Owned: true,
		}, nil
	}
	f.mu.Unlock()
	// Block until everything completes (clean shutdown) or the session
	// is lost.
	select {
	case <-f.allDone:
		return nil, fmt.Errorf("scripted feed drained: %w", engine.ErrFeedDone)
	case <-f.wake:
		return nil, errors.New("scripted feed: session lost")
	}
}

func (f *scriptedFeed) Set(id engine.AssignID, k int) (*engine.Set, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ch *engineChunk
	for _, cand := range f.chunks {
		if cand.id == id {
			ch = cand
			break
		}
	}
	if ch == nil {
		return nil, fmt.Errorf("scripted feed: set for unknown assignment %v", id)
	}
	if f.stale[id] {
		return nil, fmt.Errorf("scripted feed: %v: %w", id, engine.ErrStaleAssign)
	}
	set := &engine.Set{K: k}
	for i := 0; i < ch.rows; i++ {
		set.A = append(set.A, f.a.Block(ch.i0+i, k).Data)
	}
	for j := 0; j < ch.cols; j++ {
		set.B = append(set.B, f.b.Block(k, ch.j0+j).Data)
	}
	return set, nil
}

func (f *scriptedFeed) Complete(id engine.AssignID, blocks [][]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ch *engineChunk
	for _, cand := range f.chunks {
		if cand.id == id {
			ch = cand
			break
		}
	}
	if ch == nil || f.done[id] != nil {
		return engine.ErrStaleResult
	}
	if f.stale[id] {
		f.done[id] = ch
		if len(f.done) == len(f.chunks) {
			close(f.allDone)
		}
		return engine.ErrStaleResult
	}
	for i := 0; i < ch.rows; i++ {
		for j := 0; j < ch.cols; j++ {
			copy(f.c.Block(ch.i0+i, ch.j0+j).Data, blocks[i*ch.cols+j])
		}
	}
	f.done[id] = ch
	if len(f.done) == len(f.chunks) {
		close(f.allDone)
	}
	return nil
}

func (f *scriptedFeed) Lost() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.lost {
		f.lost = true
		close(f.wake)
	}
}

// feederPair builds one connected feeder/worker transport pair per
// implementation (the TCP pair uses the cluster dialect's framing).
func feederPair(t *testing.T, fl string, pool *engine.BlockPool) (master, worker engine.Transport) {
	t.Helper()
	if fl == "channel" {
		return engine.Pipe()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	worker = netmw.NewClusterWorkerTransport(conn, pool)
	master = netmw.NewServerTransport(<-accepted, pool, func() error { return nil })
	return master, worker
}

// TestFeederConformance drives the pushed-task dialect (RunFeeder +
// RunWorker with PullSets only) over both transports: the product must
// match the oracle and the session must end with a clean Bye.
func TestFeederConformance(t *testing.T) {
	for _, fl := range fleets {
		for _, slots := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/slots-%d", fl.name, slots), func(t *testing.T) {
				a, b, c, want := buildInputs(t, 6, 4, 6, 4)
				pool := engine.NewBlockPool()
				master, worker := feederPair(t, fl.name, pool)
				feed := newScriptedFeed(c, a, b, 2)
				feederDone := make(chan error, 1)
				go func() {
					_, err := engine.RunFeeder(master, feed, engine.FeederConfig{Slots: slots, Pool: pool})
					feederDone <- err
				}()
				rep, err := engine.RunWorker(worker, engine.WorkerConfig{
					StageCap: 2, Slots: slots, Cores: 2,
					PullSets: true, Pool: pool,
				})
				if err != nil {
					t.Fatalf("worker: %v", err)
				}
				if err := <-feederDone; err != nil {
					t.Fatalf("feeder: %v", err)
				}
				if !c.Equal(want, 1e-9) {
					t.Fatal("wrong product")
				}
				if rep.Assignments != len(feed.chunks) {
					t.Fatalf("worker served %d assignments, want %d", rep.Assignments, len(feed.chunks))
				}
			})
		}
	}
}

// TestFeederStaleSetKeepsSession: a set request for an assignment whose
// operands the feed has let go of (ErrStaleAssign) is answered with a
// filler set instead of ending the session — the worker runs the doomed
// assignment to its end, the result is refused as stale, every other
// tile is bit-exact and the session still ends with a clean Bye.
func TestFeederStaleSetKeepsSession(t *testing.T) {
	for _, fl := range fleets {
		t.Run(fl.name, func(t *testing.T) {
			a, b, c, want := buildInputs(t, 6, 4, 6, 4)
			orig := c.Clone()
			pool := engine.NewBlockPool()
			master, worker := feederPair(t, fl.name, pool)
			feed := newScriptedFeed(c, a, b, 2)
			revoked := feed.chunks[1]
			feed.stale = map[engine.AssignID]bool{revoked.id: true}
			feederDone := make(chan error, 1)
			go func() {
				// Mem 13 with two 2×2 tiles in flight announces Cap 0, so a
				// filler that skipped the builder would desync the caches.
				_, err := engine.RunFeeder(master, feed, engine.FeederConfig{Slots: 2, Pool: pool, Mem: 13})
				feederDone <- err
			}()
			rep, err := engine.RunWorker(worker, engine.WorkerConfig{
				StageCap: 2, Slots: 2, Cores: 1, PullSets: true, Pool: pool,
			})
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			if err := <-feederDone; err != nil {
				t.Fatalf("feeder: %v", err)
			}
			if rep.Assignments != len(feed.chunks) {
				t.Fatalf("worker served %d assignments, want %d", rep.Assignments, len(feed.chunks))
			}
			for i := 0; i < c.BR; i++ {
				for j := 0; j < c.BC; j++ {
					ref := want
					if i >= revoked.i0 && i < revoked.i0+revoked.rows && j >= revoked.j0 && j < revoked.j0+revoked.cols {
						ref = orig // the stale result never landed
					}
					got, exp := c.Block(i, j).Data, ref.Block(i, j).Data
					for e := range got {
						if got[e] != exp[e] {
							t.Fatalf("tile (%d,%d) element %d = %g, want %g", i, j, e, got[e], exp[e])
						}
					}
				}
			}
		})
	}
}
