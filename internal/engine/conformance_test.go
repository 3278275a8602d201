// Conformance suite: one table of lifecycle, ordering, prefetch,
// staging and kill-mid-chunk cases, each driving RunFeeder sessions and
// RunWorker goroutines over BOTH transports — the in-process channel
// pipe (engine.Pipe) and the TCP framing (internal/netmw's server and
// worker transports) — so the two can never drift apart: any
// behavioral difference between "the same engine over channels" and
// "the same engine over sockets" fails here first.
package engine_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

var fleets = []string{"channel", "tcp"}

// buildInputs creates deterministic A, B, C and the expected C + A·B.
// C's first tile is all zeros, so a flagged assignment carrying it
// ships a CZero flag instead of its payload.
func buildInputs(t *testing.T, r, tt, s, q int) (a, b, c, want *matrix.Blocked) {
	t.Helper()
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 21)
	matrix.DeterministicFill(bd, 22)
	matrix.DeterministicFill(cd, 23)
	for i := 0; i < q; i++ {
		for j := 0; j < q; j++ {
			cd.Set(i, j, 0)
		}
	}
	ref := cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q),
		matrix.Partition(cd, q), matrix.Partition(ref, q)
}

// feederPair builds one connected feeder/worker transport pair on the
// named fleet.
func feederPair(t *testing.T, fleet string, pool *engine.BlockPool) (master, worker engine.Transport) {
	t.Helper()
	if fleet == "channel" {
		return engine.Pipe()
	}
	return tcpPair(t, pool, nil)
}

// tcpPair builds one feeder/worker transport pair over a loopback TCP
// connection; wrap, when set, wraps the worker's end of it.
func tcpPair(t *testing.T, pool *engine.BlockPool, wrap func(net.Conn) net.Conn) (master, worker engine.Transport) {
	t.Helper()
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
	if wrap != nil {
		conn = wrap(conn)
	}
	worker = netmw.NewClusterWorkerTransport(conn, pool)
	master = netmw.NewServerTransport(<-accepted, pool, func() error { return nil })
	return master, worker
}

// testJob is a scripted one-job scheduler behind the engine's Feed
// interface: the job's µ-chunks in one FIFO shared by every worker
// session (one testFeed each), requeued when a session is lost. With
// flagged set, tasks go
// out with C flags (zero tiles as CZero, the rest CShip), as the
// cluster sends them; otherwise without, which means every tile ships.
type testJob struct {
	mu       sync.Mutex
	cond     *sync.Cond
	c, a, b  *matrix.Blocked
	flagged  bool
	chunks   []*chunk
	pending  []*chunk
	left     int // chunks not yet committed
	requeues int // chunks a lost session handed back
}

// chunk is one region of the job's C grid: Rows×Cols blocks from block
// (I0, J0), numbered ID in the order the job hands them out.
type chunk struct{ ID, I0, J0, Rows, Cols int }

func newTestJob(c, a, b *matrix.Blocked, mu int, flagged bool) *testJob {
	var chunks []*chunk
	for j0 := 0; j0 < c.BC; j0 += mu {
		for i0 := 0; i0 < c.BR; i0 += mu {
			chunks = append(chunks, &chunk{len(chunks), i0, j0, min(mu, c.BR-i0), min(mu, c.BC-j0)})
		}
	}
	j := &testJob{c: c, a: a, b: b, flagged: flagged, chunks: chunks,
		pending: append([]*chunk(nil), chunks...), left: len(chunks)}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func chunkID(ch *chunk) engine.AssignID { return engine.AssignID{B: uint32(ch.ID)} }

// session opens one worker session's feed.
func (j *testJob) session() *testFeed {
	return &testFeed{job: j, held: make(map[engine.AssignID]*chunk)}
}

// testFeed is one session's view of a testJob: the chunks it holds in
// flight.
type testFeed struct {
	job     *testJob
	held    map[engine.AssignID]*chunk
	commits int
	lost    bool
}

func (f *testFeed) Next() (*engine.Assign, error) {
	j := f.job
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		switch {
		case f.lost:
			return nil, errors.New("test feed: session lost")
		case j.left == 0:
			return nil, fmt.Errorf("test job done: %w", engine.ErrFeedDone)
		case len(j.pending) > 0:
			ch := j.pending[0]
			j.pending = j.pending[1:]
			f.held[chunkID(ch)] = ch
			return j.assign(ch), nil
		}
		j.cond.Wait()
	}
}

// assign copies a chunk's C tile into an owned Assign.
func (j *testJob) assign(ch *chunk) *engine.Assign {
	as := &engine.Assign{ID: chunkID(ch), I0: ch.I0, J0: ch.J0,
		Rows: ch.Rows, Cols: ch.Cols, Q: j.c.Q, Steps: j.a.BC, Owned: true}
	for i := 0; i < ch.Rows; i++ {
		for jj := 0; jj < ch.Cols; jj++ {
			src := j.c.Block(ch.I0+i, ch.J0+jj).Data
			if j.flagged {
				if engine.AllZeroBits(src) {
					as.CFlags = append(as.CFlags, engine.CZero)
					continue
				}
				as.CFlags = append(as.CFlags, engine.CShip)
			}
			as.Blocks = append(as.Blocks, append([]float64(nil), src...))
		}
	}
	return as
}

func (f *testFeed) Set(id engine.AssignID, k int) (*engine.Set, error) {
	j := f.job
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := f.held[id]
	if ch == nil {
		return nil, fmt.Errorf("test feed: set for unknown assignment %v", id)
	}
	set := &engine.Set{K: k}
	for i := 0; i < ch.Rows; i++ {
		set.A = append(set.A, j.a.Block(ch.I0+i, k).Data)
	}
	for jj := 0; jj < ch.Cols; jj++ {
		set.B = append(set.B, j.b.Block(k, ch.J0+jj).Data)
	}
	engine.StampIDs(set, 0, ch.I0, ch.J0, k)
	return set, nil
}

func (f *testFeed) Commit(res *engine.Result, _ engine.CommStats) error {
	j := f.job
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.cond.Broadcast()
	ch := f.held[res.ID]
	if ch == nil {
		return engine.ErrStaleResult
	}
	if len(res.Blocks) != ch.Rows*ch.Cols {
		return fmt.Errorf("test feed: chunk %d result carries %d blocks", ch.ID, len(res.Blocks))
	}
	delete(f.held, res.ID)
	for n, blk := range res.Blocks {
		copy(j.c.Block(ch.I0+n/ch.Cols, ch.J0+n%ch.Cols).Data, blk)
	}
	j.left--
	f.commits++
	return nil
}

// requeue puts lost chunks back at the head of the FIFO.
func (j *testJob) requeue(ch *chunk) {
	j.pending = append([]*chunk{ch}, j.pending...)
	j.requeues++
}

// Lost requeues everything the session held: its chunks in flight.
func (f *testFeed) Lost() {
	j := f.job
	j.mu.Lock()
	defer j.mu.Unlock()
	defer j.cond.Broadcast()
	if f.lost {
		return
	}
	f.lost = true
	for id, ch := range f.held {
		delete(f.held, id)
		j.requeue(ch)
	}
}

// runEngine drives one full multiply of a testJob through one RunFeeder
// session and one RunWorker goroutine per worker, over the named fleet.
// Every session's feeder keeps the worker's Slots in flight; mem > 0 is
// the memory every worker advertises, in blocks. With FailAfter set,
// worker 0 is doomed: it runs alone until the hook severs it, and the
// others start only then. tiles counts the C blocks the Results brought
// home.
func runEngine(t *testing.T, fleet string, r, tt, s, q int, workers int,
	wcfg engine.WorkerConfig, mem int, pooled, flagged bool) (c, want *matrix.Blocked, reports []engine.WorkerReport, tiles int, feedErr error) {
	t.Helper()
	a, b, c, want := buildInputs(t, r, tt, s, q)
	var pool *engine.BlockPool
	if pooled {
		pool = engine.NewBlockPool()
	}
	job := newTestJob(c, a, b, 2, flagged)
	reports = make([]engine.WorkerReport, workers)
	feedErrs := make([]error, workers)
	// In a kill case the healthy workers start only once the doomed one
	// is gone: alone on the grid it is certain to be handed the
	// assignment that severs it.
	doomedGone := make(chan struct{})
	var wg sync.WaitGroup
	ends := make([][2]*tally, workers)
	for w := 0; w < workers; w++ {
		master, worker := feederPair(t, fleet, pool)
		ends[w] = [2]*tally{{Transport: master}, {Transport: worker}}
		master, worker = ends[w][0], ends[w][1]
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, feedErrs[w] = engine.RunFeeder(master, job.session(), engine.FeederConfig{
				Slots: wcfg.Slots, Pool: pool, Mem: mem,
			})
		}()
		go func() {
			defer wg.Done()
			cfg := wcfg
			cfg.Pool = pool
			if w == 0 {
				defer close(doomedGone)
			} else if cfg.FailAfter > 0 {
				cfg.FailAfter = 0 // only worker 0 is doomed
				<-doomedGone
			}
			reports[w], _ = engine.RunWorker(worker, cfg)
		}()
	}
	wg.Wait()
	for w, end := range ends {
		checkPushSchedule(t, end[0].counts(), end[1].counts(), w == 0 && wcfg.FailAfter > 0)
		tiles += end[0].counts().tiles
	}
	return c, want, reports, tiles, errors.Join(feedErrs...)
}

// tally counts the messages one end of a session sends and receives.
type tally struct {
	engine.Transport
	mu sync.Mutex
	n  msgCounts
}

// msgCounts is one end's traffic: Tasks and the update sets they
// announce, Sets, Results and the C blocks they carry, and Requests,
// sent or received.
type msgCounts struct {
	tasks, steps, sets, results, tiles, requests int
}

func (t *tally) count(m engine.Msg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch m := m.(type) {
	case *engine.Assign:
		t.n.tasks++
		t.n.steps += m.Steps
	case *engine.Set:
		t.n.sets++
	case *engine.Result:
		t.n.results++
		t.n.tiles += len(m.Blocks)
	case *engine.Request:
		t.n.requests++
	}
}

func (t *tally) counts() msgCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Send counts first: the transport may recycle the message.
func (t *tally) Send(m engine.Msg) error {
	t.count(m)
	return t.Transport.Send(m)
}

func (t *tally) Recv() (engine.Msg, error) {
	m, err := t.Transport.Recv()
	if err == nil {
		t.count(m)
	}
	return m, err
}

// checkPushSchedule pins one session's message schedule from both ends:
// no Request ever, and per assignment one Task and Steps Sets down and
// one Result — the tile with it — up, everything sent also received. A doomed session
// dies mid-assignment, so there the sets only stay within the steps.
func checkPushSchedule(t *testing.T, master, worker msgCounts, doomed bool) {
	t.Helper()
	if master.requests != 0 || worker.requests != 0 {
		t.Errorf("the worker asked for sets: %d requests sent, %d received", worker.requests, master.requests)
	}
	if doomed {
		if master.sets > master.steps {
			t.Errorf("master pushed %d sets for %d announced steps", master.sets, master.steps)
		}
		return
	}
	if master.sets != master.steps || master.results != master.tasks {
		t.Errorf("master sent %d tasks of %d steps in %d sets and received %d results",
			master.tasks, master.steps, master.sets, master.results)
	}
	if worker.tasks != master.tasks || worker.sets != master.sets || worker.results != master.results {
		t.Errorf("worker received %d tasks and %d sets and sent %d results; master sent %d and %d and received %d",
			worker.tasks, worker.sets, worker.results, master.tasks, master.sets, master.results)
	}
}

// TestEngineConformance is the cross-transport table. Every case runs
// on the channel pipe and on TCP framing and must produce the oracle
// product bit for bit and the exact update count, send every C tile
// home exactly once, and keep the pushed schedule (checkPushSchedule).
// A kill case loses worker 0 mid-job and must complete on the
// survivors: the tile the doomed worker finished went home in its
// Result and stays, and only the assignment in its hand dies with it,
// before any update of it applied — so nothing is computed twice. The resident-* rows send C flags, as the cluster does; the
// others send none, the form in which every tile ships.
func TestEngineConformance(t *testing.T) {
	base := engine.WorkerConfig{Slots: 1, Cores: 1}
	cases := []struct {
		name        string
		r, tt, s, q int
		workers     int
		mem         int // advertised worker memory in blocks; 0 = unadvertised
		mod         func(*engine.WorkerConfig)
		pooled      bool
		flagged     bool
	}{
		{name: "lifecycle-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true},
		{name: "lifecycle-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true},
		{name: "ordering-staged-sets", r: 5, tt: 6, s: 5, q: 4, workers: 2, pooled: true},
		{name: "prefetch-double-buffer", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "prefetch-single-worker-drains-pool", r: 5, tt: 2, s: 7, q: 4, workers: 1, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "multicore-kernel", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Cores = 4; c.Slots = 2 }},
		{name: "ragged-chunks", r: 5, tt: 2, s: 7, q: 4, workers: 2, pooled: true},
		{name: "more-workers-than-chunks", r: 2, tt: 2, s: 2, q: 4, workers: 5, pooled: true},
		{name: "unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		// Memory just above the Ledger of one 2×2 chunk (16 blocks) with
		// two tiles in flight: the announced cache capacity drops to 0,
		// below every Set's own four tracked blocks.
		{name: "tight-memory-two-slots", r: 6, tt: 4, s: 6, q: 4, workers: 2, mem: 17, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1 }},
		{name: "resident-single-worker", r: 4, tt: 3, s: 4, q: 4, workers: 1, pooled: true, flagged: true},
		{name: "resident-three-workers", r: 6, tt: 4, s: 9, q: 4, workers: 3, pooled: true, flagged: true},
		{name: "resident-prefetch", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, flagged: true,
			mod: func(c *engine.WorkerConfig) { c.Slots = 2 }},
		{name: "resident-unpooled", r: 4, tt: 3, s: 4, q: 4, workers: 2, pooled: false, flagged: true},
		{name: "resident-kill-mid-chunk", r: 6, tt: 4, s: 6, q: 4, workers: 2, pooled: true, flagged: true,
			mod: func(c *engine.WorkerConfig) { c.FailAfter = 1 }},
	}
	for _, fl := range fleets {
		for _, tc := range cases {
			t.Run(fl+"/"+tc.name, func(t *testing.T) {
				wcfg := base
				if tc.mod != nil {
					tc.mod(&wcfg)
				}
				c, want, reports, tiles, err := runEngine(t, fl, tc.r, tc.tt, tc.s, tc.q,
					tc.workers, wcfg, tc.mem, tc.pooled, tc.flagged)
				if err != nil {
					t.Fatalf("feeder: %v", err)
				}
				if !c.Equal(want, 0) {
					t.Fatal("product not bit-exact")
				}
				var updates int64
				for _, rep := range reports {
					updates += rep.Updates
				}
				if want := int64(tc.r) * int64(tc.tt) * int64(tc.s); updates != want {
					t.Fatalf("updates = %d, want %d: work was computed twice or lost", updates, want)
				}
				// Every C tile flows back exactly once, in its Result.
				if want := tc.r * tc.s; tiles != want {
					t.Fatalf("Results carried %d C blocks, want every C tile once (%d)", tiles, want)
				}
			})
		}
	}
}

// TestEngineBitExactAcrossTransports pins the strongest invariant: the
// channel run, the TCP run, the pooled and the unpooled run all produce
// bit-identical floats (the engine fixes the accumulation order;
// transports only move bytes, and a commit copies the serial FMA chain
// the worker ran in place).
func TestEngineBitExactAcrossTransports(t *testing.T) {
	cfg := engine.WorkerConfig{Slots: 2, Cores: 2}
	var results []*matrix.Dense
	for _, fl := range fleets {
		for _, pooled := range []bool{true, false} {
			c, _, _, _, err := runEngine(t, fl, 6, 4, 6, 4, 2, cfg, 0, pooled, true)
			if err != nil {
				t.Fatalf("%s pooled=%v: %v", fl, pooled, err)
			}
			results = append(results, c.Assemble())
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

// TestDemandPipelined drives the prefetch pipeline (the next tile
// streams while the current one computes) with and without multi-core
// kernels on both transports: the exact product and the exact update
// count are preserved.
func TestDemandPipelined(t *testing.T) {
	for _, fl := range fleets {
		t.Run(fl, func(t *testing.T) {
			for _, tc := range []struct{ r, tt, s, q, workers, cores int }{
				{4, 4, 4, 8, 1, 1}, // single worker drains the pool alone
				{4, 4, 4, 8, 2, 2}, // multi-core kernels
				{7, 3, 5, 4, 3, 4}, // ragged chunks
				{6, 6, 6, 4, 2, 0},
				{2, 2, 2, 8, 4, 3}, // more workers than chunks
				{8, 5, 8, 4, 2, 2},
			} {
				wcfg := engine.WorkerConfig{Slots: 2, Cores: tc.cores}
				c, want, reports, _, err := runEngine(t, fl, tc.r, tc.tt, tc.s, tc.q, tc.workers, wcfg, 0, true, false)
				if err != nil {
					t.Fatalf("%+v: feeder: %v", tc, err)
				}
				if !c.Equal(want, 0) {
					t.Fatalf("%+v: product not bit-exact", tc)
				}
				var updates int64
				for _, rep := range reports {
					updates += rep.Updates
				}
				if want := int64(tc.r) * int64(tc.tt) * int64(tc.s); updates != want {
					t.Fatalf("%+v: %d updates, want %d", tc, updates, want)
				}
			}
		})
	}
}

// TestPrefetchMatchesUnprefetched pins bit-exactness across the worker
// discipline: one tile at a time on a sequential kernel and two tiles in
// flight on a sharded kernel produce identical floats.
func TestPrefetchMatchesUnprefetched(t *testing.T) {
	for _, fl := range fleets {
		t.Run(fl, func(t *testing.T) {
			c1, _, _, _, err := runEngine(t, fl, 6, 4, 6, 8, 3,
				engine.WorkerConfig{Slots: 1, Cores: 1}, 0, true, false)
			if err != nil {
				t.Fatal(err)
			}
			c2, _, _, _, err := runEngine(t, fl, 6, 4, 6, 8, 3,
				engine.WorkerConfig{Slots: 2, Cores: 4}, 0, true, false)
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := c1.Assemble(), c2.Assemble()
			for i := 0; i < d1.Rows; i++ {
				for j := 0; j < d1.Cols; j++ {
					if d1.At(i, j) != d2.At(i, j) {
						t.Fatalf("pipelined result differs at (%d,%d): %g != %g", i, j, d2.At(i, j), d1.At(i, j))
					}
				}
			}
		})
	}
}

// TestFeederConformance drives one worker session of the pushed-task
// protocol (RunFeeder + RunWorker) over both transports: the product
// must match the oracle and the session must end with a clean Bye.
func TestFeederConformance(t *testing.T) {
	for _, fl := range fleets {
		for _, slots := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/slots-%d", fl, slots), func(t *testing.T) {
				a, b, c, want := buildInputs(t, 6, 4, 6, 4)
				pool := engine.NewBlockPool()
				master, worker := feederPair(t, fl, pool)
				job := newTestJob(c, a, b, 2, false)
				feederDone := make(chan error, 1)
				go func() {
					_, err := engine.RunFeeder(master, job.session(), engine.FeederConfig{Slots: slots, Pool: pool})
					feederDone <- err
				}()
				rep, err := engine.RunWorker(worker, engine.WorkerConfig{
					Slots: slots, Cores: 2, Pool: pool,
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
				if rep.Assignments != len(job.chunks) {
					t.Fatalf("worker served %d assignments, want %d", rep.Assignments, len(job.chunks))
				}
			})
		}
	}
}

// capWatch checks every Set the master sends against the memory its
// worker has left: mem less the engine.Ledger of the assignments in
// flight. It learns them from the session's own messages, a little
// ahead of the feeder (a Result is seen here before the feeder takes it
// in), which only loosens the bound. It holds the first Result back
// from the feeder until a Set has gone out while two assignments were
// in flight, so the run reaches the budget it pins.
type capWatch struct {
	engine.Transport
	mem      int
	mu       sync.Mutex
	open     map[engine.AssignID][2]int // shape of each assignment in flight
	squeezed int                        // sets sent with two assignments in flight
	squeeze  chan struct{}              // closed by the first such set
	hold     sync.Once                  // the first Result waits for squeeze
	err      error
}

func (w *capWatch) Send(m engine.Msg) error {
	w.mu.Lock()
	switch m := m.(type) {
	case *engine.Assign:
		w.open[m.ID] = [2]int{m.Rows, m.Cols}
	case *engine.Set:
		var held engine.Ledger
		for _, sh := range w.open {
			held = held.Add(sh[0], sh[1])
		}
		if room := max(w.mem-held.Blocks(), 0); m.Cap > room && w.err == nil {
			w.err = fmt.Errorf("set %d announces a %d-block cache, the worker has %d blocks left (%d in flight)",
				m.K, m.Cap, room, held.Blocks())
		}
		if len(w.open) > 1 {
			if w.squeezed == 0 {
				close(w.squeeze)
			}
			w.squeezed++
		}
	}
	w.mu.Unlock()
	return w.Transport.Send(m)
}

func (w *capWatch) Recv() (engine.Msg, error) {
	m, err := w.Transport.Recv()
	res, ok := m.(*engine.Result)
	if !ok {
		return m, err
	}
	w.hold.Do(func() {
		select {
		case <-w.squeeze:
		case <-time.After(10 * time.Second): // the check below reports it
		}
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.open, res.ID)
	return m, err
}

// TestSetCapLeavesRoomForInflight: the operand cache a Set announces
// fits in the worker's advertised memory beside its Ledger — every chunk
// in flight, not just the one the Set belongs to, and the staged sets.
// One worker, two slots, and memory for the Ledger of two 2×2 chunks
// (20 blocks) and an 8-block cache; capWatch holds the first Result back
// until a Set has gone out beside two assignments.
func TestSetCapLeavesRoomForInflight(t *testing.T) {
	const mem = 28
	for _, fl := range fleets {
		t.Run(fl, func(t *testing.T) {
			a, b, c, want := buildInputs(t, 6, 4, 6, 4)
			pool := engine.NewBlockPool()
			master, worker := feederPair(t, fl, pool)
			watch := &capWatch{Transport: master, mem: mem, open: make(map[engine.AssignID][2]int),
				squeeze: make(chan struct{})}
			job := newTestJob(c, a, b, 2, true)
			feederDone := make(chan error, 1)
			go func() {
				_, err := engine.RunFeeder(watch, job.session(), engine.FeederConfig{Slots: 2, Pool: pool, Mem: mem})
				feederDone <- err
			}()
			if _, err := engine.RunWorker(worker, engine.WorkerConfig{Slots: 2, Cores: 1, Pool: pool}); err != nil {
				t.Fatalf("worker: %v", err)
			}
			if err := <-feederDone; err != nil {
				t.Fatalf("feeder: %v", err)
			}
			if !c.Equal(want, 0) {
				t.Fatal("product not bit-exact")
			}
			watch.mu.Lock()
			defer watch.mu.Unlock()
			if watch.err != nil {
				t.Fatal(watch.err)
			}
			if watch.squeezed == 0 {
				t.Fatal("no set went out beside two assignments: the run never reached the budget it pins")
			}
		})
	}
}

// cutConn passes the first left bytes written to it through, then
// severs the connection: a worker that dies part way into a frame.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.left])
	c.left = 0
	c.Conn.Close()
	return n, net.ErrClosed
}

// TestCutInsideResultFrame: a worker dies part way into its first
// task's result frame — after the frame and result headers and half of
// the tile's first block. The master must commit nothing of the torn
// frame and requeue the task, and a second worker must recompute it
// exactly once: C bit-exact, and r·t·s updates plus exactly the torn
// task's.
func TestCutInsideResultFrame(t *testing.T) {
	const r, tt, s, q = 6, 4, 6, 4
	a, b, c, want := buildInputs(t, r, tt, s, q)
	pool := engine.NewBlockPool()
	job := newTestJob(c, a, b, 2, true)
	// Frame header, result header, block count and size, half a block.
	const cut = 5 + 28 + 8 + q*q*8/2
	master, worker := tcpPair(t, pool, func(conn net.Conn) net.Conn { return &cutConn{Conn: conn, left: cut} })
	doomed := job.session()
	feederDone := make(chan error, 1)
	go func() {
		_, err := engine.RunFeeder(master, doomed, engine.FeederConfig{Slots: 1, Pool: pool})
		feederDone <- err
	}()
	torn, err := engine.RunWorker(worker, engine.WorkerConfig{Slots: 1, Cores: 1, Pool: pool})
	if err == nil || torn.Assignments != 0 || torn.Updates != 2*2*tt {
		t.Fatalf("doomed worker: %d assignments sent, %d updates, err %v; want 0, %d and a write error",
			torn.Assignments, torn.Updates, err, 2*2*tt)
	}
	if err := <-feederDone; err != nil {
		t.Fatalf("doomed feeder: %v", err)
	}
	if doomed.commits != 0 || job.requeues != 1 {
		t.Fatalf("the torn session committed %d results and handed back %d chunks, want 0 and 1",
			doomed.commits, job.requeues)
	}

	master, worker = tcpPair(t, pool, nil)
	go func() {
		_, err := engine.RunFeeder(master, job.session(), engine.FeederConfig{Slots: 1, Pool: pool})
		feederDone <- err
	}()
	healer, err := engine.RunWorker(worker, engine.WorkerConfig{Slots: 1, Cores: 1, Pool: pool})
	if err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	if err := <-feederDone; err != nil {
		t.Fatalf("healthy feeder: %v", err)
	}
	if !c.Equal(want, 0) {
		t.Fatal("product not bit-exact")
	}
	if got, want := torn.Updates+healer.Updates, int64(r*tt*s)+torn.Updates; got != want || job.requeues != 1 {
		t.Fatalf("%d updates and %d requeues, want %d and 1: the torn task was not recomputed exactly once",
			got, job.requeues, want)
	}
}

// parkSet parks the first Set sent through it until open is closed.
type parkSet struct {
	engine.Transport
	once   sync.Once
	parked chan struct{}
	open   chan struct{}
	back   atomic.Bool // the parked Send has returned
}

func (p *parkSet) Send(m engine.Msg) error {
	park := false
	if _, ok := m.(*engine.Set); ok {
		p.once.Do(func() { park = true })
	}
	if !park {
		return p.Transport.Send(m)
	}
	close(p.parked)
	<-p.open
	err := p.Transport.Send(m)
	p.back.Store(true)
	return err
}

// lostFeed says when the feeder declares its worker lost.
type lostFeed struct {
	engine.Feed
	lost chan struct{}
}

func (f lostFeed) Lost() {
	f.Feed.Lost()
	close(f.lost)
}

// TestFeederJoinsParkedSend: RunFeeder does not return while its
// dispatcher is still inside Send. Its caller lets go of the session's
// operands once it returns (cluster.Session.Close), and a Send reads a
// Set's blocks until it is back. Here the connection dies under a Set
// parked in Send and the worker is declared lost; RunFeeder must still
// wait for that Send.
func TestFeederJoinsParkedSend(t *testing.T) {
	a, b, c, _ := buildInputs(t, 4, 3, 4, 4)
	master, worker := engine.Pipe()
	park := &parkSet{Transport: master, parked: make(chan struct{}), open: make(chan struct{})}
	feed := lostFeed{Feed: newTestJob(c, a, b, 2, false).session(), lost: make(chan struct{})}
	returned := make(chan bool, 1)
	go func() {
		engine.RunFeeder(park, feed, engine.FeederConfig{Slots: 1})
		returned <- park.back.Load()
	}()
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		engine.RunWorker(worker, engine.WorkerConfig{Slots: 1, Cores: 1})
	}()
	<-park.parked
	worker.Close() // the connection dies under the parked Send
	<-feed.lost
	select {
	case <-returned:
		t.Fatal("RunFeeder returned while its dispatcher was parked in Send")
	case <-time.After(50 * time.Millisecond):
	}
	close(park.open)
	if back := <-returned; !back {
		t.Fatal("RunFeeder returned before the parked Send did")
	}
	<-workerDone
}

// orderFeed hands out one assignment, then waits for the session to
// end, and records the order in which the feeder commits and declares
// it lost.
type orderFeed struct {
	mu     sync.Mutex
	events []string
	handed bool
	lost   chan struct{}
}

func (f *orderFeed) Next() (*engine.Assign, error) {
	f.mu.Lock()
	first := !f.handed
	f.handed = true
	f.mu.Unlock()
	if first {
		return &engine.Assign{ID: engine.AssignID{A: 1}, Rows: 1, Cols: 1, Q: 2,
			Blocks: [][]float64{make([]float64, 4)}, Owned: true}, nil
	}
	<-f.lost
	return nil, errors.New("worker lost")
}

func (f *orderFeed) Set(engine.AssignID, int) (*engine.Set, error) {
	return nil, errors.New("the assignment has no steps")
}

func (f *orderFeed) Commit(*engine.Result, engine.CommStats) error {
	f.record("commit")
	return nil
}

func (f *orderFeed) Lost() {
	f.record("lost")
	close(f.lost)
}

func (f *orderFeed) record(ev string) {
	f.mu.Lock()
	f.events = append(f.events, ev)
	f.mu.Unlock()
}

// TestFeederCommitsResultBeforeLost: a worker sends a finished
// assignment's Result, tile and all, and hangs up at once. The tile
// reached the master, so the feeder must commit it before it declares
// the worker lost — otherwise Lost requeues the assignment and the tile
// is dropped.
func TestFeederCommitsResultBeforeLost(t *testing.T) {
	for run := 0; run < 500; run++ {
		master, worker := engine.Pipe()
		feed := &orderFeed{lost: make(chan struct{})}
		returned := make(chan error, 1)
		go func() {
			_, err := engine.RunFeeder(master, feed, engine.FeederConfig{Slots: 1})
			returned <- err
		}()
		m, err := worker.Recv()
		if err != nil {
			t.Fatal(err)
		}
		res := &engine.Result{ID: m.(*engine.Assign).ID, Blocks: [][]float64{{1, 2, 3, 4}}}
		if err := worker.Send(res); err != nil {
			t.Fatal(err)
		}
		worker.Close()
		if err := <-returned; err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(feed.events); got != "[commit lost]" {
			t.Fatalf("run %d: feed saw %s, want [commit lost]", run, got)
		}
	}
}
