package blas

import "sync"

// Blocking parameters of the packed GEMM, in the Goto/BLIS taxonomy.
// The micro-kernel computes an mr×nr tile of C (the selected kernel's
// geometry, see microkernel.go); packing reorders operand panels so the
// kernel streams both packed arrays with unit stride.
//
//   - kcBlock bounds the depth of one packed slab: a kcBlock×nr B
//     micro-panel (16 KiB at nr = 8, 32 KiB at nr = 16) stays
//     L1-resident while the kernel sweeps the A panels across it; the
//     A panels (8 or 16 KiB each) stream from L2.
//   - mcBlock bounds the row extent of one packed A slab so the whole
//     mcBlock×kcBlock panel (≤ 192 KiB) stays L2-resident; it is a
//     multiple of every kernel's mr.
//   - ncBlock bounds the column extent of one packed B slab (the L3-ish
//     level; it mostly caps the packing arena size).
//
// Splitting k into kcBlock slabs preserves bit-exactness: C is stored
// back between slabs, so every C element still accumulates its k terms
// in ascending order, one fused multiply-add at a time (see
// microkernel.go for the exactness argument).
const (
	mcBlock = 96
	kcBlock = 256
	ncBlock = 2048
)

// packArenaUnit is the float64 granularity packing arenas are rounded up
// to before entering the pool, so near-miss sizes (q = 80 vs q = 100
// panels) share size classes instead of fragmenting the pool.
const packArenaUnit = 4096

// PackPool recycles the packing arenas of the packed GEMM so the
// steady-state worker loop performs no allocation per block update. It
// follows the same ownership discipline as engine.BlockPool: Get hands
// the caller exclusive ownership of a buffer, Put returns it once no
// kernel can still read it. Buffers cross the pool through recycled
// *[]float64 headers for the same reason as in engine.BlockPool —
// storing bare slices in a sync.Pool would box a header per Put.
//
// A nil *PackPool is valid and means "no pooling": Get allocates and Put
// discards.
type PackPool struct {
	mu    sync.RWMutex
	pools map[int]*sync.Pool
	// headers recycles the *[]float64 boxes that carry arenas in and out
	// of the size-class pools.
	headers sync.Pool
}

// NewPackPool builds an empty pool; size classes appear on first use.
func NewPackPool() *PackPool {
	p := &PackPool{pools: make(map[int]*sync.Pool)}
	p.headers.New = func() any { return new([]float64) }
	return p
}

// packPool is the package-default arena source used by the dispatched
// entry points (GemmBlocked, BlockUpdate, UpdateChunk, ParallelGemm) so
// every caller shares one steady-state set of arenas.
var packPool = NewPackPool()

func (p *PackPool) class(n int) *sync.Pool {
	p.mu.RLock()
	sp := p.pools[n]
	p.mu.RUnlock()
	if sp != nil {
		return sp
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if sp = p.pools[n]; sp == nil {
		sp = &sync.Pool{}
		p.pools[n] = sp
	}
	return sp
}

// Get returns an arena of length n with arbitrary contents; the packing
// routines overwrite every element they expose to a kernel.
func (p *PackPool) Get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	cls := (n + packArenaUnit - 1) / packArenaUnit * packArenaUnit
	if p == nil {
		return make([]float64, cls)[:n]
	}
	w, _ := p.class(cls).Get().(*[]float64)
	if w == nil {
		return make([]float64, cls)[:n]
	}
	b := *w
	*w = nil
	p.headers.Put(w)
	return b[:n]
}

// Put releases an arena for reuse. The caller must not touch it again.
// Only buffers obtained from Get re-enter the pool; anything else is
// discarded, which keeps the size classes exact.
func (p *PackPool) Put(b []float64) {
	if p == nil || cap(b) == 0 || cap(b)%packArenaUnit != 0 {
		return
	}
	w := p.headers.Get().(*[]float64)
	*w = b[:cap(b)]
	p.class(cap(b)).Put(w)
}

// packSizeA returns the arena length for an mb×kb packed A slab:
// ceil(mb/mr) micro-panels of kb·mr elements each.
func packSizeA(mb, kb int) int { mr := kern.mr; return (mb + mr - 1) / mr * mr * kb }

// packSizeB returns the arena length for a kb×nb packed B slab:
// ceil(nb/nr) micro-panels of kb·nr elements each.
func packSizeB(kb, nb int) int { nr := kern.nr; return (nb + nr - 1) / nr * nr * kb }

// packHook, when set, is called once per packA and once per packB call.
// Only tests set it (to count the packs an update set costs).
var packHook func()

// packA packs the mb×kb block at a (row-major, stride lda) into mr-row
// micro-panels: panel i0/mr holds, for each k ascending, the mr values
// a[i0..i0+mr)[k] contiguously. Rows beyond mb are zero-padded so the
// micro-kernel never branches on the edge; the padded lanes feed zero
// products into accumulator lanes whose results are discarded. When neg
// is true the packed values are negated (exact sign flips), which is how
// GemmSub reuses the adding kernel for C ← C − A·B.
func packA(mb, kb int, a []float64, lda int, dst []float64, neg bool) {
	if packHook != nil {
		packHook()
	}
	mr := kern.mr
	for i0 := 0; i0 < mb; i0 += mr {
		rows := min(mr, mb-i0)
		off := i0 * kb
		if rows == mr && !neg {
			// Full panel: transpose mr rows in one sweep.
			switch mr {
			case 8:
				packA8(kb, a[i0*lda:], lda, dst[off:off+8*kb])
				continue
			case 4:
				packA4(kb, a[i0*lda:], lda, dst[off:off+4*kb])
				continue
			}
		}
		for k := 0; k < kb; k++ {
			d := dst[off+k*mr : off+k*mr+mr]
			for r := 0; r < rows; r++ {
				v := a[(i0+r)*lda+k]
				if neg {
					v = -v
				}
				d[r] = v
			}
			for r := rows; r < mr; r++ {
				d[r] = 0
			}
		}
	}
}

// packA4 transposes 4 full rows of length kb into one micro-panel.
func packA4(kb int, a []float64, lda int, d []float64) {
	r0 := a[0*lda:][:kb]
	r1 := a[1*lda:][:kb]
	r2 := a[2*lda:][:kb]
	r3 := a[3*lda:][:kb]
	d = d[:4*kb]
	for k := 0; k < kb; k++ {
		o := d[k*4 : k*4+4 : k*4+4]
		o[0], o[1], o[2], o[3] = r0[k], r1[k], r2[k], r3[k]
	}
}

// packA8 transposes 8 full rows of length kb into one micro-panel.
func packA8(kb int, a []float64, lda int, d []float64) {
	r0 := a[0*lda:][:kb]
	r1 := a[1*lda:][:kb]
	r2 := a[2*lda:][:kb]
	r3 := a[3*lda:][:kb]
	r4 := a[4*lda:][:kb]
	r5 := a[5*lda:][:kb]
	r6 := a[6*lda:][:kb]
	r7 := a[7*lda:][:kb]
	d = d[:8*kb]
	for k := 0; k < kb; k++ {
		o := d[k*8 : k*8+8 : k*8+8]
		o[0], o[1], o[2], o[3] = r0[k], r1[k], r2[k], r3[k]
		o[4], o[5], o[6], o[7] = r4[k], r5[k], r6[k], r7[k]
	}
}

// packB packs the kb×nb block at b (row-major, stride ldb) into nr-column
// micro-panels: panel j0/nr holds, for each k ascending, the nr values
// b[k][j0..j0+nr) contiguously. Columns beyond nb are zero-padded (same
// discarded-lane argument as packA). The full panels are filled row by
// row of B: the source is then read front to back, and each nr-wide cut
// lands in its panel as whole cache lines.
func packB(kb, nb int, b []float64, ldb int, dst []float64) {
	if packHook != nil {
		packHook()
	}
	nr := kern.nr
	full := nb / nr * nr
	for k := 0; k < kb; k++ {
		row := b[k*ldb : k*ldb+full]
		for j0 := 0; j0 < full; j0 += nr {
			copy(dst[j0*kb+k*nr:j0*kb+k*nr+nr], row[j0:j0+nr])
		}
	}
	if cols := nb - full; cols > 0 {
		off := full * kb
		for k := 0; k < kb; k++ {
			d := dst[off+k*nr : off+k*nr+nr]
			copy(d, b[k*ldb+full:k*ldb+nb])
			for j := cols; j < nr; j++ {
				d[j] = 0
			}
		}
	}
}
