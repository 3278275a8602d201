package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBlockIDsDistinct pins the ID packing: A-role and B-role never
// collide, jobs are scoped, coordinates matter, and 0 stays reserved
// for the untracked sentinel.
func TestBlockIDsDistinct(t *testing.T) {
	seen := map[uint64][2]interface{}{}
	add := func(id uint64, tag string, a, b, c int) {
		if id == 0 {
			t.Fatalf("%s(%d,%d,%d) encoded to the untracked sentinel 0", tag, a, b, c)
		}
		if !ValidBlockID(id) {
			t.Fatalf("%s(%d,%d,%d) = %#x fails ValidBlockID", tag, a, b, c, id)
		}
		key := [2]interface{}{tag, [3]int{a, b, c}}
		if prev, ok := seen[id]; ok && prev != key {
			t.Fatalf("id collision: %v and %v both encode to %#x", prev, key, id)
		}
		seen[id] = key
	}
	for _, job := range []uint32{0, 1, 7, 1 << 20} {
		for i := 0; i < 8; i++ {
			for k := 0; k < 8; k++ {
				add(ABlockID(job, i, k), "A", int(job), i, k)
				add(BBlockID(job, i, k), "B", int(job), i, k)
			}
		}
	}
	// Out-of-range fields must degrade to the untracked sentinel, never
	// truncate into an alias of a different block.
	for _, id := range []uint64{
		ABlockID(1<<31, 0, 0), ABlockID(0, 1<<16, 0), ABlockID(0, 0, 1<<16),
		BBlockID(1<<31, 0, 0), BBlockID(0, 1<<16, 0), BBlockID(0, 0, -1),
	} {
		if id != 0 {
			t.Fatalf("out-of-range field packed to %#x, want untracked 0", id)
		}
	}
}

// TestCBlockIDRoundTrip pins the C-role ID packing the flush protocol
// rides on: IDs round-trip through CBlockCoords, never collide with the
// operand roles, degrade to the untracked sentinel out of range, and
// CBlockCoords rejects everything that is not a well-formed C ID.
func TestCBlockIDRoundTrip(t *testing.T) {
	for _, job := range []uint32{0, 1, 7, 1 << 20, 0x1FFFFFFF} {
		for _, i := range []int{0, 1, 255, 0xFFFF} {
			for _, j := range []int{0, 3, 0xFFFF} {
				id := CBlockID(job, i, j)
				if id == 0 || !ValidBlockID(id) {
					t.Fatalf("CBlockID(%d,%d,%d) = %#x, want a valid tracked id", job, i, j, id)
				}
				if id == ABlockID(job, i, j) || id == BBlockID(job, i, j) {
					t.Fatalf("CBlockID(%d,%d,%d) collides with an operand role", job, i, j)
				}
				gj, gi, gjj, ok := CBlockCoords(id)
				if !ok || gj != job || gi != i || gjj != j {
					t.Fatalf("CBlockCoords(%#x) = (%d,%d,%d,%v), want (%d,%d,%d,true)",
						id, gj, gi, gjj, ok, job, i, j)
				}
			}
		}
	}
	// Out-of-range fields degrade to the untracked sentinel (the cluster
	// refuses such a job at admission, never a wrong tile).
	for _, id := range []uint64{
		CBlockID(1<<29, 0, 0), CBlockID(0, 1<<16, 0), CBlockID(0, 0, 1<<16), CBlockID(0, -1, 0),
	} {
		if id != 0 {
			t.Fatalf("out-of-range C field packed to %#x, want untracked 0", id)
		}
	}
	// Operand IDs, the sentinel and bit garbage are not C IDs.
	for _, id := range []uint64{0, ABlockID(3, 1, 2), BBlockID(3, 1, 2), 0x1234, blockIDRoleC} {
		if _, _, _, ok := CBlockCoords(id); ok {
			t.Fatalf("CBlockCoords accepted non-C id %#x", id)
		}
	}
}

// TestAllZeroBits pins the CZero gate: only bitwise +0.0 blocks may
// ship as a flag — a −0.0 or a denormal must force a payload, or the
// flush protocol would not be bit-exact.
func TestAllZeroBits(t *testing.T) {
	buf := make([]float64, 8)
	if !AllZeroBits(buf) {
		t.Fatal("fresh zero block rejected")
	}
	buf[5] = math.Copysign(0, -1)
	if AllZeroBits(buf) {
		t.Fatal("-0.0 accepted as all-zero; a CZero flag would flip its sign bit")
	}
	buf[5] = 0
	buf[2] = 5e-324 // smallest denormal
	if AllZeroBits(buf) {
		t.Fatal("denormal accepted as all-zero")
	}
	if !AllZeroBits(nil) {
		t.Fatal("empty block rejected")
	}
}

// TestMirroredLRU drives a SetBuilder (master mirror) and an opCache
// (worker cache) with the same randomized Set sequence and checks the
// protocol invariant: the worker can always resolve exactly the blocks
// the master skipped, under tight capacities that force evictions.
func TestMirroredLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const q = 2
	pool := NewBlockPool()
	for _, mem := range []int{0, 10, 16, 40} {
		sb := SetBuilder{Mem: mem}
		oc := newOpCache(pool)
		// Random 2x2 chunks over an 8x8 grid, 200 sets.
		for step := 0; step < 200; step++ {
			ch := &region{I0: rng.Intn(7), J0: rng.Intn(7), Rows: 2, Cols: 2}
			k := rng.Intn(6)
			set := pool.GetSet()
			set.K = k
			set.Owned = true
			for i := 0; i < ch.Rows; i++ {
				set.A = append(set.A, pool.Get(q*q))
			}
			for j := 0; j < ch.Cols; j++ {
				set.B = append(set.B, pool.Get(q*q))
			}
			StampIDs(set, 3, ch.I0, ch.J0, k)
			set = sb.Filter(set, Ledger{}.Add(ch.Rows, ch.Cols).Blocks(), pool)
			if _, err := oc.resolve(set); err != nil {
				t.Fatalf("mem=%d step %d: worker could not resolve the master's delta: %v", mem, step, err)
			}
			for i, blk := range set.A {
				if blk == nil {
					t.Fatalf("mem=%d step %d: A[%d] unresolved", mem, step, i)
				}
			}
			for j, blk := range set.B {
				if blk == nil {
					t.Fatalf("mem=%d step %d: B[%d] unresolved", mem, step, j)
				}
			}
			oc.putEvicted()
			releaseUncached(set, pool)
			pool.PutSet(set)
		}
		if sb.Stats.BlocksShipped+sb.Stats.BlocksSkipped != 200*4 {
			t.Fatalf("mem=%d: accounted %d blocks, want %d", mem,
				sb.Stats.BlocksShipped+sb.Stats.BlocksSkipped, 200*4)
		}
		if mem == 0 && sb.Stats.BlocksSkipped == 0 {
			t.Fatal("default budget produced no skips on a reuse-heavy sequence")
		}
		sb.Release()
		oc.release()
	}
}

// TestCacheBudget pins the sizing rule: advertised memory minus the
// Ledger of what is in flight, floored at zero, with the default budget
// for unadvertised workers.
func TestCacheBudget(t *testing.T) {
	if got := CacheBudget(0, 99); got != DefaultCacheBlocks {
		t.Fatalf("CacheBudget(0, 99) = %d, want default %d", got, DefaultCacheBlocks)
	}
	// A µ=4 chunk and three sets of 4+4 blocks: 16 + 3·8 = 40.
	held := Ledger{}.Add(4, 4).Blocks()
	if held != 40 {
		t.Fatalf("Ledger of a 4x4 chunk = %d, want 40", held)
	}
	if got := CacheBudget(100, held); got != 60 {
		t.Fatalf("CacheBudget(100, 40) = %d, want 60", got)
	}
	if got := CacheBudget(10, held); got != 0 {
		t.Fatalf("CacheBudget(10, 40) = %d, want 0", got)
	}
}

// TestLedger pins the one count of worker memory: every tile whole,
// the sets of the widest assignment once, and MaxSide the largest µ×µ
// chunk it fits in m blocks.
func TestLedger(t *testing.T) {
	if got := (Ledger{}).Blocks(); got != 0 {
		t.Fatalf("empty ledger = %d blocks, want 0", got)
	}
	// Tiles 4 + 2, sets three times the wider 2+2: 6 + 12.
	if got := (Ledger{}).Add(2, 2).Add(1, 2).Blocks(); got != 18 {
		t.Fatalf("ledger of 2x2 and 1x2 = %d blocks, want 18", got)
	}
	for _, tc := range []struct{ m, mu int }{{6, 0}, {7, 1}, {15, 1}, {16, 2}, {27, 3}, {112, 8}, {1024, 29}} {
		if got := MaxSide(tc.m); got != tc.mu {
			t.Fatalf("MaxSide(%d) = %d, want %d", tc.m, got, tc.mu)
		}
	}
	for m := 0; m < 2000; m++ {
		mu := MaxSide(m)
		if mu > 0 && (Ledger{}).Add(mu, mu).Blocks() > m || (Ledger{}).Add(mu+1, mu+1).Blocks() <= m {
			t.Fatalf("MaxSide(%d) = %d is not the largest µ×µ chunk the ledger fits", m, mu)
		}
	}
}

// TestMirrorCapacityZero: a zero budget must degrade to the full
// protocol (every block shipped) without desync or leak.
func TestMirrorCapacityZero(t *testing.T) {
	pool := NewBlockPool()
	sb := SetBuilder{Mem: 1} // below any footprint → budget 0
	oc := newOpCache(pool)
	for k := 0; k < 5; k++ {
		set := pool.GetSet()
		set.Owned = true
		for i := 0; i < 4; i++ {
			if i < 2 {
				set.A = append(set.A, pool.Get(4))
			} else {
				set.B = append(set.B, pool.Get(4))
			}
		}
		StampIDs(set, 0, 0, 0, k)
		set = sb.Filter(set, Ledger{}.Add(2, 2).Blocks(), pool)
		if set.Cap != 0 {
			t.Fatalf("cap = %d, want 0", set.Cap)
		}
		for _, blk := range append(append([][]float64{}, set.A...), set.B...) {
			if blk == nil {
				t.Fatal("zero-budget delta skipped a block")
			}
		}
		if _, err := oc.resolve(set); err != nil {
			t.Fatal(err)
		}
		oc.putEvicted()
		releaseUncached(set, pool)
		pool.PutSet(set)
	}
	if sb.Stats.BlocksSkipped != 0 {
		t.Fatalf("zero budget skipped %d blocks", sb.Stats.BlocksSkipped)
	}
	sb.Release()
	oc.release()
}

// TestResolveRejectsUnknownReference: a manifest reference to a block
// the cache does not hold must error (protocol violation), not panic or
// silently compute on garbage.
func TestResolveRejectsUnknownReference(t *testing.T) {
	pool := NewBlockPool()
	oc := newOpCache(pool)
	defer oc.release()
	set := &Set{
		A:    [][]float64{nil},
		B:    [][]float64{make([]float64, 4)},
		AIDs: []uint64{ABlockID(0, 1, 2)},
		BIDs: []uint64{BBlockID(0, 2, 1)},
		Cap:  8,
	}
	if _, err := oc.resolve(set); err == nil {
		t.Fatal("unknown cache reference resolved")
	}
}

// region is a chunk's place in the C block grid: Rows×Cols blocks from
// block (I0, J0).
type region struct{ I0, J0, Rows, Cols int }

// lruIDs walks a blockCache's recency list head (most recent) to tail,
// checking the intrusive list and the map agree on membership.
func lruIDs(t *testing.T, c *blockCache) []uint64 {
	t.Helper()
	var ids []uint64
	for e := c.head; e != nil; e = e.next {
		if c.m[e.id] != e {
			t.Fatalf("cache list/map desync at id %#x", e.id)
		}
		ids = append(ids, e.id)
	}
	if len(ids) != len(c.m) {
		t.Fatalf("cache list holds %d entries, map %d", len(ids), len(c.m))
	}
	return ids
}

// TestMirroredCachesNeverDiverge is the randomized divergence oracle
// for the delta protocol: a SetBuilder (master mirror) and an opCache
// (worker cache) processing the same Set stream must hold the same IDs
// in the same recency order after every step — under capacity pressure
// that forces evictions, inflight footprints that shrink the announced
// Cap mid-session, untracked (ID 0) entries, multi-job interleaving in
// one session, and reconnects that reset both ends together. Any drift
// is caught at the step it happens, with the op sequence reproducible
// from the seed.
func TestMirroredCachesNeverDiverge(t *testing.T) {
	const q = 2
	const steps = 400
	jobs := []uint32{1, 2, 9}
	mems := []int{0, 6, 10, 16, 40}
	allHot := 0 // Sets whose own A block went in their own resolve
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := NewBlockPool()
		mem := mems[rng.Intn(len(mems))]
		sb := &SetBuilder{Mem: mem}
		oc := newOpCache(pool)
		sessions := 1
		// A row tour is the cutter's tier-0 move: 1×1 or 2×1 chunks
		// marching along one block-row, each scanning k = 0..5 in order,
		// so its own row's A blocks stay hot and the all-hot branch of
		// the victim rule runs whenever the row outgrows the Cap.
		var tour *region
		var tourJob uint32
		tourK := 0
		for step := 0; step < steps; step++ {
			if rng.Intn(10) == 0 {
				// Reconnect: the session dies and both ends rebuild their
				// caches from nothing, possibly at a new advertised memory.
				sb.Release()
				oc.release()
				mem = mems[rng.Intn(len(mems))]
				sb = &SetBuilder{Mem: mem}
				oc = newOpCache(pool)
				sessions++
				continue
			}
			if tour == nil && rng.Intn(8) == 0 {
				tour = &region{I0: rng.Intn(7), Rows: 1 + rng.Intn(2), Cols: 1}
				tourJob, tourK = jobs[rng.Intn(len(jobs))], 0
			}
			var job uint32
			var ch *region
			var k int
			if tour != nil {
				job, k = tourJob, tourK
				ch = &region{I0: tour.I0, J0: tour.J0, Rows: tour.Rows, Cols: tour.Cols}
				if tourK++; tourK == 6 {
					tourK = 0
					if tour.J0++; tour.J0 == 7 {
						tour = nil
					}
				}
			} else {
				job = jobs[rng.Intn(len(jobs))]
				ch = &region{I0: rng.Intn(7), J0: rng.Intn(7), Rows: 1 + rng.Intn(2), Cols: 1 + rng.Intn(2)}
				if rng.Intn(20) == 0 {
					// Out-of-range coordinates stamp to the untracked sentinel:
					// those entries always ship and never enter either cache.
					ch.I0 = 1 << 16
				}
				k = rng.Intn(6)
			}
			set := pool.GetSet()
			set.K = k
			set.Owned = true
			for i := 0; i < ch.Rows; i++ {
				set.A = append(set.A, pool.Get(q*q))
			}
			for j := 0; j < ch.Cols; j++ {
				set.B = append(set.B, pool.Get(q*q))
			}
			StampIDs(set, job, ch.I0, ch.J0, k)
			// Stamp every payload with its ID so a resolved reference that
			// came back with the wrong buffer is caught by content.
			for i, id := range set.AIDs {
				for e := range set.A[i] {
					set.A[i][e] = float64(id)
				}
			}
			for j, id := range set.BIDs {
				for e := range set.B[j] {
					set.B[j][e] = float64(id)
				}
			}
			// A varying inflight footprint varies the announced Cap, so the
			// eviction horizon moves while blocks are already resident.
			inflight := Ledger{}.Add(1+rng.Intn(2), 1+rng.Intn(2)).Blocks()
			set = sb.Filter(set, inflight, pool)
			if _, err := oc.resolve(set); err != nil {
				t.Fatalf("seed %d step %d (mem %d): resolve: %v", seed, step, mem, err)
			}
			ids := append(append([]uint64(nil), set.AIDs...), set.BIDs...)
			blocks := append(append([][]float64(nil), set.A...), set.B...)
			for i, id := range ids {
				if blocks[i] == nil {
					t.Fatalf("seed %d step %d: entry %d (id %#x) unresolved", seed, step, i, id)
				}
				if id != 0 && blocks[i][0] != float64(id) {
					t.Fatalf("seed %d step %d: id %#x resolved to a buffer stamped %g",
						seed, step, id, blocks[i][0])
				}
			}
			oc.putEvicted()
			releaseUncached(set, pool)
			pool.PutSet(set)

			// The divergence oracle proper: same IDs, same recency order.
			if sb.mirror == nil {
				if len(oc.cache.m) != 0 {
					t.Fatalf("seed %d step %d: worker cached %d blocks, master mirror empty",
						seed, step, len(oc.cache.m))
				}
				continue
			}
			ms := lruIDs(t, sb.mirror)
			ws := lruIDs(t, oc.cache)
			if len(ms) != len(ws) {
				t.Fatalf("seed %d step %d (mem %d): mirror holds %d ids, worker %d",
					seed, step, mem, len(ms), len(ws))
			}
			for i := range ms {
				if ms[i] != ws[i] {
					t.Fatalf("seed %d step %d: recency rank %d diverged: master %#x, worker %#x",
						seed, step, i, ms[i], ws[i])
				}
			}
			if cap := CacheBudget(mem, inflight); len(ws) > cap {
				t.Fatalf("seed %d step %d: worker holds %d blocks over the %d-block cap",
					seed, step, len(ws), cap)
			}
			// A hot block is a victim only once nothing cold is left, so
			// this Set's own A block missing from the cache means the
			// all-hot branch ran.
			for _, id := range set.AIDs {
				if id != 0 && oc.cache.m[id] == nil {
					allHot++
					break
				}
			}
		}
		if sessions < 2 {
			t.Fatalf("seed %d: random walk produced no reconnect; widen the op mix", seed)
		}
		sb.Release()
		oc.release()
	}
	if allHot == 0 {
		t.Fatal("no Set evicted its own A block: the all-hot branch never ran; widen the op mix")
	}
}

// TestResolveKeepsEvictedOperandsUntilApplied is the tight-memory
// use-after-release reproducer: with Cap below the Set's own tracked
// block count, resolve evicts blocks the Set it just returned still
// points at. Their buffers must not reach the pool before the update
// is applied — the reader goroutine's next decode takes them straight
// back out and overwrites the operands under the kernel. Under
// -tags poolcheck a premature release also poisons them.
func TestResolveKeepsEvictedOperandsUntilApplied(t *testing.T) {
	pool := NewBlockPool()
	oc := newOpCache(pool)
	defer oc.release()
	// resolve ships A(0,k) and B(k,0), filled with av and bv, at cap.
	resolve := func(k, cap int, av, bv float64) *Set {
		t.Helper()
		a, b := pool.Get(4), pool.Get(4)
		for i := range a {
			a[i], b[i] = av, bv
		}
		set := &Set{
			A: [][]float64{a}, B: [][]float64{b},
			AIDs: []uint64{ABlockID(0, 0, k)}, BIDs: []uint64{BBlockID(0, k, 0)},
			Cap: cap, Owned: true,
		}
		if _, err := oc.resolve(set); err != nil {
			t.Fatal(err)
		}
		return set
	}
	// applied checks that set still reads av and bv after what the
	// reader's decode of the next Set does while this one is being
	// applied, then returns the evicted buffers, as the worker does once
	// the update is done.
	applied := func(set *Set, av, bv float64) {
		t.Helper()
		for n := 0; n < 2; n++ {
			next := pool.Get(4)
			for i := range next {
				next[i] = -1
			}
		}
		for i := range set.A[0] {
			if set.A[0][i] != av || set.B[0][i] != bv {
				t.Fatalf("operands overwritten before the update was applied: A=%v B=%v", set.A[0], set.B[0])
			}
		}
		oc.putEvicted()
		if len(oc.evicted) != 0 {
			t.Fatalf("%d evicted buffers still held after the update", len(oc.evicted))
		}
	}

	set := resolve(0, 0, 1, 2)
	if len(oc.cache.m) != 0 {
		t.Fatalf("cache holds %d ids after resolving at Cap 0, want 0 (the mirror evicted them)", len(oc.cache.m))
	}
	applied(set, 1, 2)

	// The row rule can evict a block in the resolve that ships it: at
	// Cap 1 the second Set of a row tour keeps A(0,0), drops the cold
	// B(1,0), and then — every block left being hot — the most recent
	// one, its own A(0,1).
	resolve(0, 1, 3, 4)
	set = resolve(1, 1, 5, 6)
	if len(oc.cache.m) != 1 || oc.cache.m[ABlockID(0, 0, 0)] == nil {
		t.Fatalf("cache holds %d ids after the row's second Set at Cap 1, want only A(0,0)", len(oc.cache.m))
	}
	applied(set, 5, 6)
}

// TestRowTourKeepsRowPrefix drives the cutter's tier-0 tour by hand:
// two row tours of eight 1×1 chunks, each scanning k = 0..7, at Mem 16
// with held 5, 10 and 12 (Caps 11, 6 and 4). A chunk reads 16 distinct
// blocks, more than any of these Caps, so plain LRU evicts every A block
// just before the next chunk of the row asks for it and hits nothing.
// The row rule keeps the row's first min(cap, 8) A blocks: every chunk
// after the first of its row hits exactly that many, and the worker
// resolves every Set the master's mirror rewrote.
func TestRowTourKeepsRowPrefix(t *testing.T) {
	const q, depth = 2, 8
	pool := NewBlockPool()
	for _, held := range []int{5, 10, 12} {
		sb := SetBuilder{Mem: 16}
		oc := newOpCache(pool)
		c := int64(min(CacheBudget(sb.Mem, held), depth))
		var got, want []int64
		for row := 0; row < 2; row++ {
			for col := 0; col < 8; col++ {
				var hits int64
				for k := 0; k < depth; k++ {
					set := pool.GetSet()
					set.K, set.Owned = k, true
					set.A = append(set.A, pool.Get(q*q))
					set.B = append(set.B, pool.Get(q*q))
					StampIDs(set, 1, row, col, k)
					skipped := sb.Stats.BlocksSkipped
					set = sb.Filter(set, held, pool)
					h, err := oc.resolve(set)
					if err != nil {
						t.Fatalf("held %d chunk (%d,%d) k=%d: %v", held, row, col, k, err)
					}
					if h != sb.Stats.BlocksSkipped-skipped {
						t.Fatalf("held %d chunk (%d,%d) k=%d: worker hit %d, master skipped %d",
							held, row, col, k, h, sb.Stats.BlocksSkipped-skipped)
					}
					hits += h
					oc.putEvicted()
					releaseUncached(set, pool)
					pool.PutSet(set)
				}
				got = append(got, hits)
				if col == 0 {
					want = append(want, 0)
				} else {
					want = append(want, c)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("held %d (cap %d): hits per chunk %v, want %v", held, CacheBudget(sb.Mem, held), got, want)
		}
		sb.Release()
		oc.release()
	}
}
