package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRunAssignMatchesRunWorker: RunAssign computes an assignment's tile
// bit for bit as RunWorker does over the channel pipe. The job is one
// 2×2 assignment whose C tile mixes a CZero block (buildInputs zeroes
// the first) with CShip ones; RunWorker runs it on one core and sharded.
func TestRunAssignMatchesRunWorker(t *testing.T) {
	const r, tt, s, q = 2, 3, 2, 4
	for _, cores := range []int{1, 4} {
		wcfg := engine.WorkerConfig{StageCap: 1, Slots: 1, Cores: cores}
		c, _, _, err := runEngine(t, "channel", r, tt, s, q, 1, wcfg, 0, true, true)
		if err != nil {
			t.Fatalf("cores %d: %v", cores, err)
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
					t.Fatalf("cores %d: tile %d element %d = %g, RunWorker computed %g", cores, n, e, blk[e], want[e])
				}
			}
		}
	}
}

// setFeed is a Feed that hands out, for every step, an update set of a
// A blocks and b B blocks of q×q zeros; RunAssign calls nothing else.
type setFeed struct {
	engine.Feed
	a, b, q int
}

func (f setFeed) Set(_ engine.AssignID, k int) (*engine.Set, error) {
	set := &engine.Set{K: k}
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
// retired flag 1 or an unknown flag, a tile beyond the block-ID fields,
// a set with the wrong operand counts — and runs the well-formed one.
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
		{name: "tile beyond the block IDs", edit: func(as *engine.Assign) { as.J0 = 1<<16 - 1 }, feed: ok,
			want: "overflow the block ID fields"},
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
