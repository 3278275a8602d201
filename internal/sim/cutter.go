package sim

import "fmt"

// rect is one free region of the C block grid awaiting cutting.
type rect struct {
	i0, j0     int
	rows, cols int
}

// Cutter carves a rows×cols block grid into chunks lazily, so chunk
// sides can be chosen per worker at dispatch time instead of globally
// at submit time. It is a guillotine cutter over a free-rectangle list.
// A chunk of side µ is placed on a free rectangle's µ-lattice — its
// corner plus multiples of µ — and clipped to the rectangle, so edge
// chunks are smaller; the rectangle is replaced, in place, by the strips
// the cut leaves: right, left, above, below. At a fixed µ with no Free,
// every rectangle's lattice is the grid's, and the chunks are exactly
// the static µ×µ partition Algorithm 1 plans with.
//
// Where a chunk goes is the tour rule. Without a cursor it is the
// corner of the first free rectangle: consecutive cuts sweep a block row
// band left to right, the row-major locality of the max-reuse order.
// With a cursor — the cell of the asking worker's previous chunk — it is
// the lattice position that best extends that worker's tour: the
// nearest one in the same block-row (the A operands are already
// resident, so the delta protocol skips them), then the nearest in the
// same block-column (B resident), then the one at the smallest Manhattan
// distance; ties go to the smaller column, then the smaller row.
//
// The produced chunks tile the grid exactly: no overlap, no gaps. Free
// returns a previously cut region (a lost chunk re-enters the pool and
// is re-cut, possibly at a different µ, for whoever asks next).
//
// Cutter does no locking; the cluster scheduler drives it under its
// own mutex.
type Cutter struct {
	free       []rect
	rows, cols int // the grid
	left       int // blocks not yet cut
}

// NewCutter builds a cutter over a rows×cols block grid.
func NewCutter(rows, cols int) *Cutter {
	c := &Cutter{rows: rows, cols: cols}
	if rows > 0 && cols > 0 {
		c.free = []rect{{0, 0, rows, cols}}
		c.left = rows * cols
	}
	return c
}

// Empty reports whether the whole grid has been cut.
func (c *Cutter) Empty() bool { return c.left == 0 }

// Next returns the chunk with side at most mu that the tour rule places
// from cur (nil = no cursor), without carving it, so a caller can check
// that the chunk fits before committing to it with Claim. ok is false
// when the grid is exhausted.
func (c *Cutter) Next(mu int, cur *[2]int) (i0, j0, rows, cols int, ok bool) {
	if mu < 1 || len(c.free) == 0 {
		return 0, 0, 0, 0, false
	}
	r := c.free[0]
	i0, j0 = r.i0, r.j0
	if cur != nil {
		best := [4]int{3} // worse than any stop
		for _, fr := range c.free {
			if s := fr.stop(mu, cur[0], cur[1]); before(s, best) {
				best, r = s, fr
			}
		}
		i0, j0 = best[3], best[2]
	}
	return i0, j0, min(mu, r.i0+r.rows-i0), min(mu, r.j0+r.cols-j0), true
}

// stop ranks the rectangle's best µ-lattice position for a tour at
// (ci, cj) as {tier, distance, column, row}: tier 0 in the same
// block-row, 1 in the same block-column, 2 elsewhere.
func (r rect) stop(mu, ci, cj int) [4]int {
	i := nearest(ci, r.i0, r.rows, mu)
	j := nearest(cj, r.j0, r.cols, mu)
	switch {
	case i == ci:
		return [4]int{0, abs(j - cj), j, i}
	case j == cj:
		return [4]int{1, abs(i - ci), j, i}
	default:
		return [4]int{2, abs(i-ci) + abs(j-cj), j, i}
	}
}

// before orders stops lexicographically.
func before(a, b [4]int) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// nearest returns the point of the lattice lo, lo+step, … below lo+size
// closest to x, the lower one on a tie.
func nearest(x, lo, size, step int) int {
	p := lo
	if x > lo {
		p += min((x-lo)/step, (size-1)/step) * step
	}
	if q := p + step; q < lo+size && q-x < x-p {
		p = q
	}
	return p
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Free returns a region to the pool (a lost chunk awaiting re-cut). It
// goes to the back of the list: fresh forward progress stays at the
// front, requeued regions fill in behind.
func (c *Cutter) Free(i0, j0, rows, cols int) error {
	if rows < 1 || cols < 1 {
		return fmt.Errorf("sim: freeing empty region %dx%d", rows, cols)
	}
	if c.left+rows*cols > c.rows*c.cols {
		return fmt.Errorf("sim: freeing %d blocks would exceed the %d-block grid", rows*cols, c.rows*c.cols)
	}
	c.free = append(c.free, rect{i0, j0, rows, cols})
	c.left += rows * cols
	return nil
}

// Claim removes one specific region from the free pool: the chunk Next
// placed, or, on the journal replay path, a chunk known to be committed,
// which must never be re-cut. It returns the number of blocks
// actually claimed: the full region when it was free, 0 when it was
// already cut (a second replay of the same record), and a partial count
// when the region straddles cut and free space. Each free rectangle the
// region overlaps is replaced, in place, by its remainder strips.
func (c *Cutter) Claim(i0, j0, rows, cols int) int {
	claimed := 0
	out := c.free[:0:0]
	for _, r := range c.free {
		ti := max(r.i0, i0)
		tj := max(r.j0, j0)
		bi := min(r.i0+r.rows, i0+rows)
		bj := min(r.j0+r.cols, j0+cols)
		if ti >= bi || tj >= bj {
			out = append(out, r)
			continue
		}
		claimed += (bi - ti) * (bj - tj)
		for _, s := range []rect{
			{ti, bj, bi - ti, r.j0 + r.cols - bj},  // right
			{ti, r.j0, bi - ti, tj - r.j0},         // left
			{r.i0, r.j0, ti - r.i0, r.cols},        // above
			{bi, r.j0, r.i0 + r.rows - bi, r.cols}, // below
		} {
			if s.rows > 0 && s.cols > 0 {
				out = append(out, s)
			}
		}
	}
	c.free = out
	c.left -= claimed
	return claimed
}

// Rects exports the free regions as {i0, j0, rows, cols} tuples — the
// cutter's snapshot form for the durable control plane.
func (c *Cutter) Rects() [][4]int {
	out := make([][4]int, len(c.free))
	for i, r := range c.free {
		out[i] = [4]int{r.i0, r.j0, r.rows, r.cols}
	}
	return out
}

// NewCutterFromRects rebuilds a cutter over a rows×cols grid whose free
// pool is exactly the given regions (the inverse of Rects; no regions
// is an empty cutter Free can refill). Check tells whether they form
// one.
func NewCutterFromRects(rows, cols int, rects [][4]int) *Cutter {
	c := &Cutter{rows: rows, cols: cols}
	for _, r := range rects {
		c.free = append(c.free, rect{r[0], r[1], r[2], r[3]})
		c.left += r[2] * r[3]
	}
	return c
}

// Check refuses a free pool that no sequence of cuts and frees leaves:
// a rectangle empty or outside the grid, two rectangles that overlap, or
// more free blocks than the grid holds. A pool rebuilt from a durable
// record is checked before anything is cut from it.
func (c *Cutter) Check() error {
	if c.left > c.rows*c.cols {
		return fmt.Errorf("sim: %d free blocks in a %d-block grid", c.left, c.rows*c.cols)
	}
	for n, r := range c.free {
		if r.rows < 1 || r.cols < 1 || r.i0 < 0 || r.j0 < 0 || r.i0+r.rows > c.rows || r.j0+r.cols > c.cols {
			return fmt.Errorf("sim: free region %v outside the %dx%d grid", r, c.rows, c.cols)
		}
		for _, o := range c.free[:n] {
			if r.i0 < o.i0+o.rows && o.i0 < r.i0+r.rows && r.j0 < o.j0+o.cols && o.j0 < r.j0+r.cols {
				return fmt.Errorf("sim: free regions %v and %v overlap", o, r)
			}
		}
	}
	return nil
}
