package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zeroed: %v", i, v)
		}
	}
}

func TestAtSet(t *testing.T) {
	m := NewDense(4, 4)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := m.At(3, 2); got != 0 {
		t.Fatalf("At(3,2) = %v, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	n := m.Clone()
	n.Set(0, 0, 2)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original")
	}
}

// fill sets every element of m to f(i, j).
func fill(m *Dense, f func(i, j int) float64) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, f(i, j))
		}
	}
}

func TestFillAndEqual(t *testing.T) {
	m := NewDense(3, 3)
	fill(m, func(i, j int) float64 { return float64(i*3 + j) })
	n := m.Clone()
	if !m.Equal(n, 0) {
		t.Fatal("clone not equal")
	}
	n.Set(1, 1, n.At(1, 1)+1e-6)
	if m.Equal(n, 1e-9) {
		t.Fatal("Equal ignored a 1e-6 difference at tol 1e-9")
	}
	if !m.Equal(n, 1e-3) {
		t.Fatal("Equal rejected a difference within tolerance")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewDense(2, 3).Equal(NewDense(3, 2), 1) {
		t.Fatal("Equal accepted different shapes")
	}
}

func TestMaxDiff(t *testing.T) {
	m := NewDense(2, 2)
	n := NewDense(2, 2)
	n.Set(1, 0, -3)
	if d := m.MaxDiff(n); d != 3 {
		t.Fatalf("MaxDiff = %v, want 3", d)
	}
}

func TestPartitionAssembleRoundTrip(t *testing.T) {
	for _, tc := range []struct{ rows, cols, q int }{
		{4, 4, 2}, {8, 4, 4}, {6, 9, 3}, {10, 10, 5}, {2, 2, 2},
	} {
		d := NewDense(tc.rows, tc.cols)
		DeterministicFill(d, int64(tc.rows*100+tc.cols))
		blk := Partition(d, tc.q)
		if blk.BR != tc.rows/tc.q || blk.BC != tc.cols/tc.q {
			t.Fatalf("%v: bad block shape %dx%d", tc, blk.BR, blk.BC)
		}
		back := blk.Assemble()
		if !d.Equal(back, 0) {
			t.Fatalf("%v: roundtrip mismatch", tc)
		}
	}
}

func TestPartitionBlockContents(t *testing.T) {
	d := NewDense(4, 6)
	fill(d, func(i, j int) float64 { return float64(i*10 + j) })
	blk := Partition(d, 2)
	b := blk.Block(1, 2) // rows 2-3, cols 4-5
	want := []float64{24, 25, 34, 35}
	for i, v := range want {
		if b.Data[i] != v {
			t.Fatalf("block(1,2).Data[%d] = %v, want %v", i, b.Data[i], v)
		}
	}
	if b.I != 1 || b.J != 2 || b.Q != 2 {
		t.Fatalf("block tags wrong: %+v", b)
	}
}

func TestPartitionPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for indivisible partition")
		}
	}()
	Partition(NewDense(5, 4), 2)
}

func TestBlockedDims(t *testing.T) {
	m := NewBlocked(3, 4, 5)
	if m.Rows() != 15 || m.Cols() != 20 {
		t.Fatalf("dims %dx%d, want 15x20", m.Rows(), m.Cols())
	}
}

func TestBlockedCloneAndEqual(t *testing.T) {
	d := NewDense(6, 6)
	DeterministicFill(d, 42)
	m := Partition(d, 3)
	n := m.Clone()
	if !m.Equal(n, 0) {
		t.Fatal("clone differs")
	}
	n.Block(1, 1).Data[0] += 1
	if m.Equal(n, 1e-9) {
		t.Fatal("Equal missed a changed block")
	}
	if m.Block(1, 1).Data[0] == n.Block(1, 1).Data[0] {
		t.Fatal("Clone aliases block data")
	}
}

func TestMulNaiveKnown(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	c := NewDense(2, 2)
	fill(a, func(i, j int) float64 { return float64(i*3 + j + 1) }) // 1..6
	fill(b, func(i, j int) float64 { return float64(i*2 + j + 1) }) // 1..6
	c.Set(0, 0, 100)
	MulNaive(c, a, b)
	// [1 2 3; 4 5 6] * [1 2; 3 4; 5 6] = [22 28; 49 64]
	want := [][]float64{{122, 28}, {49, 64}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulNaivePanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MulNaive(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

func TestDeterministicFillStable(t *testing.T) {
	a := NewDense(4, 4)
	b := NewDense(4, 4)
	DeterministicFill(a, 7)
	DeterministicFill(b, 7)
	if !a.Equal(b, 0) {
		t.Fatal("same seed produced different matrices")
	}
	DeterministicFill(b, 8)
	if a.Equal(b, 0) {
		t.Fatal("different seeds produced identical matrices")
	}
	for _, v := range a.Data {
		if math.Abs(v) > 1 {
			t.Fatalf("fill value %v out of [-1,1]", v)
		}
	}
}

func TestChecksumDetectsChange(t *testing.T) {
	a := NewDense(5, 5)
	DeterministicFill(a, 3)
	s := a.Checksum()
	a.Set(2, 2, a.At(2, 2)+1)
	if a.Checksum() == s {
		t.Fatal("checksum unchanged after mutation")
	}
}

// Property: partition/assemble is the identity for any compatible shape.
func TestQuickPartitionRoundTrip(t *testing.T) {
	f := func(brRaw, bcRaw, qRaw uint8, seed int64) bool {
		br := int(brRaw%4) + 1
		bc := int(bcRaw%4) + 1
		q := int(qRaw%4) + 1
		d := NewDense(br*q, bc*q)
		DeterministicFill(d, seed)
		return d.Equal(Partition(d, q).Assemble(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulNaive distributes over addition of C (C0 + A·B computed in
// one or two accumulations agree).
func TestQuickMulAccumulation(t *testing.T) {
	f := func(seed int64) bool {
		n := 6
		a := NewDense(n, n)
		b := NewDense(n, n)
		c1 := NewDense(n, n)
		DeterministicFill(a, seed)
		DeterministicFill(b, seed+1)
		DeterministicFill(c1, seed+2)
		c2 := c1.Clone()
		MulNaive(c1, a, b) // C1 = C + AB
		half := a.Clone()
		for i := range half.Data {
			half.Data[i] /= 2
		}
		MulNaive(c2, half, b)
		MulNaive(c2, half, b) // C2 = C + (A/2)B + (A/2)B
		return c1.Equal(c2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
