// Package matrix provides dense matrices and the block partition of
// Figure 1 of the paper: the three operands of C ← C + A·B are manipulated
// as square q×q blocks so that a Level-3 BLAS kernel can be applied to each
// block update. A is split into r×t blocks, B into t×s blocks and C into
// r×s blocks.
//
// Matrices are stored row-major in a single backing slice, which keeps block
// extraction cache-friendly and allocation-free views possible for full rows.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports whether m and n have the same shape and elements within tol.
func (m *Dense) Equal(n *Dense, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute elementwise difference between m and
// n. It panics if the shapes differ.
func (m *Dense) MaxDiff(n *Dense) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("matrix: MaxDiff shape mismatch")
	}
	var d float64
	for i, v := range m.Data {
		if a := math.Abs(v - n.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// Checksum returns a cheap order-dependent checksum used to detect
// accidental corruption of operands that algorithms must treat as read-only.
func (m *Dense) Checksum() float64 {
	var s float64
	for i, v := range m.Data {
		s += v * float64(i%97+1)
	}
	return s
}

// Block is one q×q tile of a partitioned matrix, tagged with its block
// coordinates inside the owning matrix. Blocks are the atomic unit of both
// communication and computation throughout the paper.
type Block struct {
	I, J int // block coordinates (0-based; the paper is 1-based)
	Q    int
	Data []float64 // Q*Q, row-major
}

// NewBlock allocates a zeroed q×q block at block coordinates (i, j).
func NewBlock(i, j, q int) *Block {
	return &Block{I: i, J: j, Q: q, Data: make([]float64, q*q)}
}

// Clone returns a deep copy of b.
func (b *Block) Clone() *Block {
	nb := &Block{I: b.I, J: b.J, Q: b.Q, Data: make([]float64, len(b.Data))}
	copy(nb.Data, b.Data)
	return nb
}

// Blocked is a matrix partitioned into BR×BC square blocks of size Q
// (Figure 1). The underlying data is owned by the blocks, which makes
// per-block sends in the runtimes copy-free.
type Blocked struct {
	BR, BC int // block rows / block columns
	Q      int
	Blocks []*Block // BR*BC, row-major by block coordinate
}

// NewBlocked allocates a zeroed blocked matrix with br×bc blocks of size q.
func NewBlocked(br, bc, q int) *Blocked {
	if br < 0 || bc < 0 || q <= 0 {
		panic(fmt.Sprintf("matrix: invalid blocked shape %dx%d blocks of q=%d", br, bc, q))
	}
	m := &Blocked{BR: br, BC: bc, Q: q, Blocks: make([]*Block, br*bc)}
	for i := 0; i < br; i++ {
		for j := 0; j < bc; j++ {
			m.Blocks[i*bc+j] = NewBlock(i, j, q)
		}
	}
	return m
}

// Block returns the block at block coordinates (i, j).
func (m *Blocked) Block(i, j int) *Block {
	if i < 0 || i >= m.BR || j < 0 || j >= m.BC {
		panic(fmt.Sprintf("matrix: block (%d,%d) out of %dx%d", i, j, m.BR, m.BC))
	}
	return m.Blocks[i*m.BC+j]
}

// Rows and Cols report the element dimensions of the blocked matrix.
func (m *Blocked) Rows() int { return m.BR * m.Q }

// Cols reports the number of element columns.
func (m *Blocked) Cols() int { return m.BC * m.Q }

// Partition cuts a dense matrix into q×q blocks. The dense dimensions must
// be multiples of q, mirroring the paper's assumption that r = nA/q,
// s = nB/q and t = nAB/q are integers.
func Partition(d *Dense, q int) *Blocked {
	if d.Rows%q != 0 || d.Cols%q != 0 {
		panic(fmt.Sprintf("matrix: %dx%d not divisible by q=%d", d.Rows, d.Cols, q))
	}
	br, bc := d.Rows/q, d.Cols/q
	m := NewBlocked(br, bc, q)
	for bi := 0; bi < br; bi++ {
		for bj := 0; bj < bc; bj++ {
			blk := m.Block(bi, bj)
			for i := 0; i < q; i++ {
				src := d.Data[(bi*q+i)*d.Cols+bj*q : (bi*q+i)*d.Cols+bj*q+q]
				copy(blk.Data[i*q:(i+1)*q], src)
			}
		}
	}
	return m
}

// Assemble reconstitutes a dense matrix from its blocks (inverse of
// Partition).
func (m *Blocked) Assemble() *Dense {
	d := NewDense(m.Rows(), m.Cols())
	q := m.Q
	for bi := 0; bi < m.BR; bi++ {
		for bj := 0; bj < m.BC; bj++ {
			blk := m.Block(bi, bj)
			for i := 0; i < q; i++ {
				dst := d.Data[(bi*q+i)*d.Cols+bj*q : (bi*q+i)*d.Cols+bj*q+q]
				copy(dst, blk.Data[i*q:(i+1)*q])
			}
		}
	}
	return d
}

// Clone returns a deep copy of the blocked matrix.
func (m *Blocked) Clone() *Blocked {
	out := &Blocked{BR: m.BR, BC: m.BC, Q: m.Q, Blocks: make([]*Block, len(m.Blocks))}
	for i, b := range m.Blocks {
		out.Blocks[i] = b.Clone()
	}
	return out
}

// Equal reports whether two blocked matrices agree within tol.
func (m *Blocked) Equal(n *Blocked, tol float64) bool {
	if m.BR != n.BR || m.BC != n.BC || m.Q != n.Q {
		return false
	}
	for i := range m.Blocks {
		for k, v := range m.Blocks[i].Data {
			if math.Abs(v-n.Blocks[i].Data[k]) > tol {
				return false
			}
		}
	}
	return true
}

// MulNaive computes C = C + A·B with the textbook triple loop on dense
// matrices. It is the correctness oracle for every other multiply in the
// repository: every C element accumulates its k terms in ascending order
// as one fused-multiply-add chain, the exact arithmetic contract of the
// blas kernels (reference, packed and parallel alike), so runtime
// results compare bit-for-bit against it.
func MulNaive(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulNaive shape mismatch C %dx%d = A %dx%d * B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			crow := c.Data[i*c.Cols : (i+1)*c.Cols]
			for j := range brow {
				crow[j] = math.FMA(aik, brow[j], crow[j])
			}
		}
	}
}

// DeterministicFill fills d with a smooth deterministic pattern seeded by
// seed; distinct seeds produce distinct matrices. Values stay in [-1, 1] so
// that products remain well conditioned for exact float comparisons at the
// tolerances used in tests.
func DeterministicFill(d *Dense, seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	for i := range d.Data {
		s = s*6364136223846793005 + 1442695040888963407
		// map the top 53 bits to [-1, 1)
		d.Data[i] = float64(int64(s>>11))/(1<<52) - 1
	}
}
