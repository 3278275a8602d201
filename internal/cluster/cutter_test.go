package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/homog"
)

// cut carves the chunk Next places and claims it.
func cut(c *cutter, mu int, cur *[2]int) (i0, j0, rows, cols int, ok bool) {
	i0, j0, rows, cols, ok = c.Next(mu, cur)
	if ok {
		c.Claim(i0, j0, rows, cols)
	}
	return i0, j0, rows, cols, ok
}

// freeBlocks counts the blocks left on the cutter's free list.
func freeBlocks(c *cutter) int {
	n := 0
	for _, r := range c.Rects() {
		n += r[2] * r[3]
	}
	return n
}

// TestCutterExactTiling pins the cutter's invariant: chunks of varying µ
// tile the grid exactly — every block covered once, no overlap, no gap.
func TestCutterExactTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		c := newCutter(rows, cols)
		seen := make([]bool, rows*cols)
		for !c.Empty() {
			mu := 1 + rng.Intn(6)
			i0, j0, r, cl, ok := cut(c, mu, nil)
			if !ok {
				t.Fatalf("grid %dx%d: cut failed with %d blocks left", rows, cols, freeBlocks(c))
			}
			if r > mu || cl > mu || r < 1 || cl < 1 {
				t.Fatalf("cut %dx%d exceeds µ=%d", r, cl, mu)
			}
			for i := i0; i < i0+r; i++ {
				for j := j0; j < j0+cl; j++ {
					if i < 0 || i >= rows || j < 0 || j >= cols {
						t.Fatalf("cut (%d,%d)+%dx%d escapes %dx%d grid", i0, j0, r, cl, rows, cols)
					}
					if seen[i*cols+j] {
						t.Fatalf("block (%d,%d) cut twice", i, j)
					}
					seen[i*cols+j] = true
				}
			}
		}
		for idx, s := range seen {
			if !s {
				t.Fatalf("grid %dx%d: block %d never cut", rows, cols, idx)
			}
		}
		if _, _, _, _, ok := cut(c, 3, nil); ok {
			t.Fatal("cut succeeded on an empty cutter")
		}
	}
}

// TestCutterRowBandLocality pins the cursor-free order: uniform µ cuts
// sweep a row band left to right before descending, preserving A-row
// operand reuse for consecutive chunks.
func TestCutterRowBandLocality(t *testing.T) {
	c := newCutter(4, 6)
	type pos struct{ i0, j0 int }
	var order []pos
	for !c.Empty() {
		i0, j0, _, _, ok := cut(c, 2, nil)
		if !ok {
			t.Fatal("cut failed")
		}
		order = append(order, pos{i0, j0})
	}
	want := []pos{{0, 0}, {0, 2}, {0, 4}, {2, 0}, {2, 2}, {2, 4}}
	if len(order) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(order), len(want))
	}
	for n := range want {
		if order[n] != want[n] {
			t.Fatalf("chunk %d at (%d,%d), want (%d,%d)", n, order[n].i0, order[n].j0, want[n].i0, want[n].j0)
		}
	}
}

// TestCutterFreeRecut pins the requeue path: a freed region is re-cut
// (possibly at a different µ) and the tiling stays exact.
func TestCutterFreeRecut(t *testing.T) {
	c := newCutter(6, 6)
	i0, j0, r, cl, ok := cut(c, 4, nil)
	if !ok {
		t.Fatal("cut failed")
	}
	if freeBlocks(c) != 36-r*cl {
		t.Fatalf("remaining = %d", freeBlocks(c))
	}
	if err := c.Free(i0, j0, r, cl); err != nil {
		t.Fatal(err)
	}
	if freeBlocks(c) != 36 {
		t.Fatalf("remaining after free = %d", freeBlocks(c))
	}
	// Over-freeing must be refused.
	if err := c.Free(0, 0, 10, 10); err == nil {
		t.Fatal("over-free accepted")
	}
	// Drain at µ=1: exactly 36 unit chunks, each block once.
	seen := make(map[[2]int]bool)
	for !c.Empty() {
		i, j, rr, cc, ok := cut(c, 1, nil)
		if !ok || rr != 1 || cc != 1 {
			t.Fatalf("unit cut failed: %v %dx%d", ok, rr, cc)
		}
		if seen[[2]int{i, j}] {
			t.Fatalf("block (%d,%d) cut twice after free", i, j)
		}
		seen[[2]int{i, j}] = true
	}
	if len(seen) != 36 {
		t.Fatalf("drained %d blocks, want 36", len(seen))
	}
}

// TestCutterTourLocality pins the tour rule: from the cursor — the
// worker's previous chunk — the nearest chunk in the same block-row
// first, then the nearest in the same block-column, else the chunk at
// minimum Manhattan distance, ties to the smaller column and row; with
// no cursor, the corner of the first free region.
func TestCutterTourLocality(t *testing.T) {
	// Four free 2×2 chunks of a 6×4 grid, listed in this order.
	four := [][4]int{{2, 0, 2, 2}, {4, 0, 2, 2}, {0, 2, 2, 2}, {0, 0, 2, 2}}
	for _, tc := range []struct {
		name         string
		rows, cols   int
		free         [][4]int
		mu           int
		cur          *[2]int
		wantI, wantJ int
		wantR, wantC int
	}{
		{"no cursor takes the first region", 6, 4, four, 2, nil, 2, 0, 2, 2},
		{"same row", 6, 4, four, 2, &[2]int{0, 4}, 0, 2, 2, 2},
		{"same column", 6, 4, four, 2, &[2]int{6, 2}, 0, 2, 2, 2},
		// |Δ| from (6,6): (2,0) 4+6, (4,0) 2+6, (0,2) 6+4, (0,0) 6+6.
		{"nearest Manhattan", 6, 4, four, 2, &[2]int{6, 6}, 4, 0, 2, 2},
		// (2,0) is the only same-row chunk and wins over closer columns.
		{"row over distance", 6, 4, four, 2, &[2]int{2, 9}, 2, 0, 2, 2},
		{"tie to the smaller column", 6, 4, four, 2, &[2]int{0, 1}, 0, 0, 2, 2},
		// Inside one free region, on its µ-lattice: rows and columns 0, 2, 4.
		{"lattice row, columns tie", 6, 6, nil, 2, &[2]int{2, 3}, 2, 2, 2, 2},
		{"off the lattice", 6, 6, nil, 2, &[2]int{3, 5}, 2, 4, 2, 2},
		{"edge chunk is clipped", 5, 5, nil, 2, &[2]int{4, 0}, 4, 0, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCutter(tc.rows, tc.cols)
			if tc.free != nil {
				c = newCutterFromRects(tc.rows, tc.cols, tc.free)
			}
			i0, j0, r, cl, ok := c.Next(tc.mu, tc.cur)
			if !ok || i0 != tc.wantI || j0 != tc.wantJ || r != tc.wantR || cl != tc.wantC {
				t.Fatalf("Next = (%d,%d) %dx%d %v, want (%d,%d) %dx%d",
					i0, j0, r, cl, ok, tc.wantI, tc.wantJ, tc.wantR, tc.wantC)
			}
		})
	}
}

// TestCutterTilesUnderToursAndFrees is the cutter's property test: over
// random grids, µ values, cursors and Frees of cut chunks, every cut
// lands on uncut blocks inside the grid, Next is what a Claim then
// carves, the free list holds exactly the uncut blocks, and once
// drained the chunks still in hand tile the grid exactly.
func TestCutterTilesUnderToursAndFrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(16), 1+rng.Intn(16)
		c := newCutter(rows, cols)
		cover := make([]int, rows*cols)
		uncut := rows * cols
		var held [][4]int
		mark := func(ch [4]int, d int) {
			for i := ch[0]; i < ch[0]+ch[2]; i++ {
				for j := ch[1]; j < ch[1]+ch[3]; j++ {
					cover[i*cols+j] += d
				}
			}
			uncut -= d * ch[2] * ch[3]
		}
		for step := 0; !c.Empty() || step < 40; step++ {
			if c.Empty() || (len(held) > 0 && step < 40 && rng.Intn(4) == 0) {
				if len(held) == 0 {
					break
				}
				n := rng.Intn(len(held))
				ch := held[n]
				held = append(held[:n], held[n+1:]...)
				if err := c.Free(ch[0], ch[1], ch[2], ch[3]); err != nil {
					t.Fatal(err)
				}
				mark(ch, -1)
				continue
			}
			mu := 1 + rng.Intn(5)
			var cur *[2]int
			if rng.Intn(4) > 0 {
				cur = &[2]int{rng.Intn(rows), rng.Intn(cols)}
			}
			ni, nj, nr, nc, _ := c.Next(mu, cur)
			i0, j0, r, cl, ok := cut(c, mu, cur)
			if !ok {
				t.Fatalf("trial %d: cut failed with %d blocks uncut", trial, freeBlocks(c))
			}
			if [4]int{ni, nj, nr, nc} != [4]int{i0, j0, r, cl} {
				t.Fatalf("trial %d: Next said (%d,%d) %dx%d, Claim carved (%d,%d) %dx%d",
					trial, ni, nj, nr, nc, i0, j0, r, cl)
			}
			if r < 1 || cl < 1 || r > mu || cl > mu || i0 < 0 || j0 < 0 || i0+r > rows || j0+cl > cols {
				t.Fatalf("trial %d: chunk (%d,%d) %dx%d at µ=%d escapes the %dx%d grid", trial, i0, j0, r, cl, mu, rows, cols)
			}
			ch := [4]int{i0, j0, r, cl}
			mark(ch, 1)
			for i := i0; i < i0+r; i++ {
				for j := j0; j < j0+cl; j++ {
					if cover[i*cols+j] != 1 {
						t.Fatalf("trial %d: block (%d,%d) cut twice", trial, i, j)
					}
				}
			}
			held = append(held, ch)
			if freeBlocks(c) != uncut {
				t.Fatalf("trial %d: free list holds %d blocks, %d uncut", trial, freeBlocks(c), uncut)
			}
		}
		for idx, n := range cover {
			if n != 1 {
				t.Fatalf("trial %d: block %d covered %d times after draining", trial, idx, n)
			}
		}
	}
}

// TestCutterFixedMuIsChunkGrid: at one µ with no Free, whatever the
// cursors, the cutter carves exactly homog.ChunkGrid's chunks — the
// max-reuse partition of §5.
func TestCutterFixedMuIsChunkGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		rows, cols, mu := 1+rng.Intn(16), 1+rng.Intn(16), 1+rng.Intn(6)
		_, pool := homog.ChunkGrid(core.Problem{R: rows, S: cols, T: 1, Q: 1}, mu)
		want := make(map[[4]int]bool)
		for _, ch := range pool {
			want[[4]int{ch.I0, ch.J0, ch.Rows, ch.Cols}] = true
		}
		c := newCutter(rows, cols)
		var cur *[2]int
		got := 0
		for !c.Empty() {
			i0, j0, r, cl, _ := cut(c, mu, cur)
			if !want[[4]int{i0, j0, r, cl}] {
				t.Fatalf("trial %d: %dx%d grid at µ=%d: chunk (%d,%d) %dx%d is not ChunkGrid's",
					trial, rows, cols, mu, i0, j0, r, cl)
			}
			got++
			switch rng.Intn(3) {
			case 0:
				cur = nil
			case 1:
				cur = &[2]int{i0, j0}
			default:
				cur = &[2]int{rng.Intn(rows), rng.Intn(cols)}
			}
		}
		if got != len(want) {
			t.Fatalf("trial %d: %d chunks, ChunkGrid has %d", trial, got, len(want))
		}
	}
}

// TestCutterCheck pins the free-pool check a durable record's pool must
// pass: disjoint rectangles inside the grid, no more blocks than it
// holds. A pool a cutter reached by cuts and frees always passes.
func TestCutterCheck(t *testing.T) {
	c := newCutter(4, 5)
	cut(c, 2, nil)
	cut(c, 3, &[2]int{0, 0})
	if err := c.Free(0, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := newCutterFromRects(4, 5, c.Rects()).Check(); err != nil {
		t.Fatalf("a pool reached by cuts and frees: %v", err)
	}
	for _, tc := range []struct {
		name  string
		rects [][4]int
	}{
		{"outside the grid", [][4]int{{3, 3, 2, 2}}},
		{"negative corner", [][4]int{{-1, 0, 1, 1}}},
		{"empty", [][4]int{{0, 0, 0, 2}}},
		{"overlapping", [][4]int{{0, 0, 2, 2}, {1, 1, 2, 2}}},
		{"beyond the grid's area", [][4]int{{0, 0, 4, 5}, {0, 0, 4, 5}}},
	} {
		if err := newCutterFromRects(4, 5, tc.rects).Check(); err == nil {
			t.Errorf("%s: %v passed the check", tc.name, tc.rects)
		}
	}
}
