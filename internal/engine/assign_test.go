package engine_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestRunAssignMatchesRunWorker: RunAssign computes an assignment's tile
// bit for bit as RunWorker does over the channel pipe. The job is one
// 2×2 assignment whose C tile mixes a CZero block (buildInputs zeroes
// the first) with CShip ones; RunWorker runs it on one core and sharded,
// with and without Spin, and RunAssign never spins.
func TestRunAssignMatchesRunWorker(t *testing.T) {
	const r, tt, s, q = 2, 3, 2, 4
	for _, run := range []struct {
		cores int
		spin  time.Duration
	}{{1, 0}, {4, 0}, {1, time.Microsecond}, {4, time.Microsecond}} {
		wcfg := engine.WorkerConfig{Slots: 1, Cores: run.cores, Spin: run.spin}
		c, _, _, _, err := runEngine(t, "channel", r, tt, s, q, 1, wcfg, 0, true, true)
		if err != nil {
			t.Fatalf("cores %d spin %v: %v", run.cores, run.spin, err)
		}
		a, b, c2, _ := buildInputs(t, r, tt, s, q)
		feed := newTestJob(c2, a, b, 2, true).session()
		as, err := feed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if as.Rows*as.Cols != r*s || !bytes.Contains(as.CFlags, []byte{engine.CZero}) ||
			!bytes.Contains(as.CFlags, []byte{engine.CShip}) {
			t.Fatalf("assignment %dx%d with flags %v, want the whole 2x2 tile, CZero and CShip mixed",
				as.Rows, as.Cols, as.CFlags)
		}
		if err := engine.RunAssign(as, feed, engine.NewBlockPool()); err != nil {
			t.Fatal(err)
		}
		for n, blk := range as.Blocks {
			want := c.Block(as.I0+n/as.Cols, as.J0+n%as.Cols).Data
			for e := range blk {
				if blk[e] != want[e] {
					t.Fatalf("cores %d spin %v: tile %d element %d = %g, RunWorker computed %g",
						run.cores, run.spin, n, e, blk[e], want[e])
				}
			}
		}
	}
}

// TestWorkerSendsTileBehindResult: RunWorker sends each finished tile
// home unasked, behind the result header in the same message. A
// scripted master over engine.Pipe pushes a job's assignments one at a
// time, each with its update sets, and sends nothing else until its
// Bye. Per assignment it must receive exactly one message, the Result,
// carrying the tile row-major, bit-exact with RunAssign's tile of the
// same assignment.
func TestWorkerSendsTileBehindResult(t *testing.T) {
	const r, tt, s, q = 5, 3, 3, 4 // µ = 2 leaves ragged chunks
	a, b, c, _ := buildInputs(t, r, tt, s, q)
	job := newTestJob(c, a, b, 2, true)
	feed := job.session()
	master, worker := engine.Pipe()
	defer master.Close()
	type outcome struct {
		rep engine.WorkerReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := engine.RunWorker(worker, engine.WorkerConfig{Slots: 1, Cores: 1})
		done <- outcome{rep, err}
	}()
	recv := func() engine.Msg {
		t.Helper()
		got := make(chan engine.Msg, 1)
		go func() {
			m, _ := master.Recv()
			got <- m
		}()
		select {
		case m := <-got:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("the worker sent nothing within 5s")
			return nil
		}
	}
	var builder engine.SetBuilder
	tiles := 0
	for _, ch := range job.chunks {
		feed.held[chunkID(ch)] = ch
		ref := job.assign(ch)
		if err := engine.RunAssign(ref, feed, engine.NewBlockPool()); err != nil {
			t.Fatal(err)
		}
		as := job.assign(ch)
		id, steps := as.ID, as.Steps
		if err := master.Send(as); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < steps; k++ {
			set, err := feed.Set(id, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := master.Send(builder.Filter(set, 0, nil)); err != nil {
				t.Fatal(err)
			}
		}
		res, ok := recv().(*engine.Result)
		if !ok || res.ID != id {
			t.Fatalf("chunk %d: got %#v, want the Result of %v", ch.ID, res, id)
		}
		if len(res.Blocks) != ch.Rows*ch.Cols {
			t.Fatalf("chunk %d: the Result carries %d tile blocks, want %d", ch.ID, len(res.Blocks), ch.Rows*ch.Cols)
		}
		tiles += len(res.Blocks)
		for n, blk := range res.Blocks {
			if !slices.Equal(blk, ref.Blocks[n]) {
				t.Fatalf("chunk %d: tile block %d differs from RunAssign's", ch.ID, n)
			}
		}
	}
	if err := master.Send(engine.Bye{}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if tiles != r*s || out.rep.Assignments != len(job.chunks) {
		t.Fatalf("worker reports %d assignments and its Results carried %d blocks, want %d and %d",
			out.rep.Assignments, tiles, len(job.chunks), r*s)
	}
}

// setFeed is a Feed that hands out, for every step, an update set of a
// A blocks and b B blocks of q×q zeros, each untracked (ID 0);
// RunAssign calls nothing else.
type setFeed struct {
	engine.Feed
	a, b, q int
}

func (f setFeed) Set(_ engine.AssignID, k int) (*engine.Set, error) {
	set := &engine.Set{K: k, AIDs: make([]uint64, f.a), BIDs: make([]uint64, f.b)}
	for range f.a {
		set.A = append(set.A, make([]float64, f.q*f.q))
	}
	for range f.b {
		set.B = append(set.B, make([]float64, f.q*f.q))
	}
	return set, nil
}

// TestRunAssignRefusesMalformed: RunAssign refuses every malformed
// assignment and update set the worker refuses — a flag count that is
// not Rows·Cols, a payload count that is not the CShip count, the
// retired flag 1 or an unknown flag, a set with the wrong operand
// counts — and runs the well-formed ones, a tile past the block-ID
// fields among them (no ID names a tile).
func TestRunAssignRefusesMalformed(t *testing.T) {
	const q = 2
	ok := setFeed{a: 1, b: 2, q: q}
	for _, tc := range []struct {
		name string
		edit func(*engine.Assign)
		feed setFeed
		want string // in the refusal; "" = runs
	}{
		{name: "well-formed", feed: ok},
		{name: "flag count", edit: func(as *engine.Assign) { as.CFlags = as.CFlags[:1] }, feed: ok,
			want: "carries 1 C flags for a 1x2 tile"},
		{name: "payloads short of the CShip flags", edit: func(as *engine.Assign) { as.Blocks = nil }, feed: ok,
			want: "ships 0 C payloads, flags want more"},
		{name: "payloads past the CShip flags", edit: func(as *engine.Assign) {
			as.Blocks = append(as.Blocks, make([]float64, q*q))
		}, feed: ok, want: "ships 2 C payloads for 1 CShip flags"},
		{name: "retired flag 1", edit: func(as *engine.Assign) { as.CFlags[1] = 1 }, feed: ok,
			want: "unknown C flag 1"},
		{name: "unknown flag", edit: func(as *engine.Assign) { as.CFlags[1] = 7 }, feed: ok,
			want: "unknown C flag 7"},
		{name: "tile beyond the block IDs", edit: func(as *engine.Assign) { as.J0 = 1<<16 - 1 }, feed: ok},
		{name: "set with too many A blocks", feed: setFeed{a: 2, b: 2, q: q}, want: "has 2x2 operands, want 1x2"},
		{name: "set with too few B blocks", feed: setFeed{a: 1, b: 1, q: q}, want: "has 1x1 operands, want 1x2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			as := &engine.Assign{ID: engine.AssignID{A: 1}, Rows: 1, Cols: 2, Q: q, Steps: 2,
				CFlags: []byte{engine.CShip, engine.CZero}, Blocks: [][]float64{make([]float64, q*q)}, Owned: true}
			if tc.edit != nil {
				tc.edit(as)
			}
			err := engine.RunAssign(as, tc.feed, nil)
			switch {
			case tc.want == "" && (err != nil || len(as.Blocks) != 2):
				t.Fatalf("RunAssign = %v with %d tile blocks, want a 1x2 tile", err, len(as.Blocks))
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("RunAssign = %v, want a refusal saying %q", err, tc.want)
			}
		})
	}
}
