package blas

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// withKernel runs f with k selected: the test-only override of the
// CPU's choice. Production code has no way to do this — selection is by
// CPUID alone.
func withKernel(k kernel, f func()) {
	old := kern
	kern = k
	defer func() { kern = old }()
	f()
}

// forEachKernel runs f once per micro-kernel the host supports, as a
// subtest named after the kernel, with that kernel selected — so an
// AVX-512 runner still pins the AVX2 and math.FMA paths.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range supportedKernels() {
		t.Run(k.name, func(t *testing.T) {
			withKernel(k, func() { f(t) })
		})
	}
}

// kernelDims yields shapes that straddle the selected kernel's
// micro-tile (mr×nr), the dispatch cutoff and the mc/kc slab edges.
func kernelDims() []int {
	mr, nr := kern.mr, kern.nr
	return []int{1, 2, 3, mr - 1, mr, mr + 1, nr - 1, nr, nr + 3, 17, 31, 64, 95, 100, kcBlock, kcBlock + 5}
}

// refTile is the micro-kernel contract written out: a scalar math.FMA
// chain per C element in ascending k, for any tile shape.
func refTile(mr, nr, kc int, ap, bp, c []float64, ldc int) {
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			v := c[i*ldc+j]
			for k := 0; k < kc; k++ {
				v = math.FMA(ap[k*mr+i], bp[k*nr+j], v)
			}
			c[i*ldc+j] = v
		}
	}
}

// TestMicroKernelAsmMatchesGo pins every micro-kernel the host supports
// (the name predates the second assembly kernel) to the scalar
// reference chain, tile by tile, across depths that straddle kc.
func TestMicroKernelAsmMatchesGo(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		k := &kern
		rng := rand.New(rand.NewSource(43))
		for _, kc := range []int{1, 2, 7, 64, kcBlock - 1, kcBlock} {
			ap := unalignedSlice(rng, kc*k.mr)
			bp := unalignedSlice(rng, kc*k.nr)
			fillRand(rng, ap)
			fillRand(rng, bp)
			ldc := k.nr + rng.Intn(5)
			c0 := unalignedSlice(rng, k.mr*ldc)
			fillRand(rng, c0)
			got := append([]float64(nil), c0...)
			k.run(kc, ap, bp, got, ldc)
			want := append([]float64(nil), c0...)
			refTile(k.mr, k.nr, kc, ap, bp, want, ldc)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("kc=%d: kernel and reference chain diverge at %d: %g != %g", kc, i, got[i], want[i])
				}
			}
		}
	})
}

// TestKernelSelection pins the descriptor table: the selected kernel is
// the head of the supported list, every geometry fits the edge scratch
// and divides mcBlock, and the portable kernel is always available.
func TestKernelSelection(t *testing.T) {
	ks := supportedKernels()
	if kern != ks[0] || KernelName() != kern.name {
		t.Fatalf("selected %+v, want the head of %+v", kern, ks)
	}
	if ks[len(ks)-1] != goKernel {
		t.Fatalf("portable kernel missing from %+v", ks)
	}
	for _, k := range ks {
		if k.mr > maxMR || k.nr > maxNR || mcBlock%k.mr != 0 {
			t.Fatalf("kernel %+v does not fit maxMR=%d maxNR=%d mcBlock=%d", k, maxMR, maxNR, mcBlock)
		}
	}
}

// chunkOperands builds a rows×cols update set of q×q blocks.
func chunkOperands(rng *rand.Rand, rows, cols, q int) (aBlks, bBlks, cBlks [][]float64) {
	mk := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = unalignedSlice(rng, q*q)
			fillRand(rng, out[i])
		}
		return out
	}
	return mk(rows), mk(cols), mk(rows * cols)
}

func cloneBlocks(src [][]float64) [][]float64 {
	out := make([][]float64, len(src))
	for i := range src {
		out[i] = append([]float64(nil), src[i]...)
	}
	return out
}

func equalBlocks(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for bi := range got {
		for i := range got[bi] {
			if got[bi][i] != want[bi][i] {
				t.Fatalf("%s: block %d elem %d: got %g want %g", what, bi, i, got[bi][i], want[bi][i])
			}
		}
	}
}

// TestUpdateChunkPacksOnce is the pack-once property: under every
// kernel, UpdateChunk and ParallelUpdateChunk are bit-identical to
// per-block BlockUpdate and pack each operand block of the set exactly
// once — rows + cols packs per call, where the per-block form costs
// 2·rows·cols. The block sizes straddle every kernel's mr/nr (64 and
// 128 divide both, 80 and 100 leave edge tiles) and reach kc (256).
// The whole rows, cols ∈ 1..5 grid runs at the cheapest size; the
// others take a cut of it (one block, a row, a column, ragged, square;
// from q = 128 up one block and ragged only) so the math.FMA kernel
// stays affordable under -race. The reference is
// computed once, under the CPU's own kernel, so the check is also
// cross-kernel.
func TestUpdateChunkPacksOnce(t *testing.T) {
	type shape struct{ rows, cols int }
	var grid []shape
	for rows := 1; rows <= 5; rows++ {
		for cols := 1; cols <= 5; cols++ {
			grid = append(grid, shape{rows, cols})
		}
	}
	cut := []shape{{1, 1}, {1, 5}, {5, 1}, {2, 3}, {3, 3}}
	rng := rand.New(rand.NewSource(71))
	for _, q := range []int{64, 80, 100, 128, 256} {
		shapes := cut
		switch {
		case q == 64:
			shapes = grid
		case q >= 128:
			shapes = []shape{{1, 1}, {2, 3}}
		}
		for _, sh := range shapes {
			rows, cols := sh.rows, sh.cols
			aBlks, bBlks, base := chunkOperands(rng, rows, cols, q)
			want := cloneBlocks(base)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					BlockUpdate(want[i*cols+j], aBlks[i], bBlks[j], q)
				}
			}
			for _, k := range supportedKernels() {
				withKernel(k, func() {
					var packs atomic.Int64
					packHook = func() { packs.Add(1) }
					defer func() { packHook = nil }()
					got := cloneBlocks(base)
					UpdateChunk(got, aBlks, bBlks, rows, cols, q)
					equalBlocks(t, k.name+" UpdateChunk", got, want)
					if n := int(packs.Swap(0)); n != rows+cols {
						t.Fatalf("%s q=%d %dx%d: UpdateChunk packed %d times, want rows+cols = %d",
							k.name, q, rows, cols, n, rows+cols)
					}
					// Workers ≤ blocks takes the shared-pack fan-out. More
					// workers than blocks shards inside each block instead,
					// which packs per block by design and is checked for
					// equality only (TestParallelUpdateChunkExact).
					workers := min(3, rows*cols)
					if workers < 2 {
						return
					}
					got = cloneBlocks(base)
					ParallelUpdateChunk(got, aBlks, bBlks, rows, cols, q, workers)
					equalBlocks(t, k.name+" ParallelUpdateChunk", got, want)
					if n := int(packs.Load()); n != rows+cols {
						t.Fatalf("%s q=%d %dx%d workers=%d: ParallelUpdateChunk packed %d times, want rows+cols = %d",
							k.name, q, rows, cols, workers, n, rows+cols)
					}
				})
			}
		}
	}
}
