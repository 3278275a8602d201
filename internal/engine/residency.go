package engine

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
)

// Operand residency: the delta-Set protocol that makes operand movement
// proportional to *missing* data instead of *used* data (§4's re-use
// argument pushed across the wire). The master keeps, per worker
// session, a mirror of which operand blocks the worker holds; each Set
// then ships a manifest of block IDs plus payloads only for the blocks
// the worker lacks. The worker pins received operands in a cache keyed
// by block ID and resolves manifest references from it.
//
// Correctness rests on one invariant: both ends run the SAME eviction
// rule (blockCache.evictTo: a pure function of the recency list, the
// capacity and the Set's manifest), with the SAME capacity (announced
// in every Set), over the SAME sequence of Sets — per-connection FIFO
// delivery makes the sequences identical, so the two caches can never
// disagree about what is resident. A session starts empty on both
// sides, which is what makes reconnect safe: a new incarnation gets a
// new session, so a worker that comes back after a kill is re-fed from
// scratch.

// DefaultCacheBlocks is the resident-cache capacity used for workers
// that advertise no memory bound (the in-process runtime, tests).
const DefaultCacheBlocks = 1024

// StageDepth is how many update sets every worker stages ahead of the
// one it applies: a full stage stops its reader, and the transport's
// back-pressure holds the rest at the master.
const StageDepth = 2

// Ledger counts the blocks a live worker holds outside its operand
// cache: every in-flight tile whole, plus StageDepth+1 update sets (the
// one applied and the staged lookahead) of the widest assignment, once
// per worker, since it feeds one assignment at a time. It is the one
// statement of the paper's limited memory — m blocks, no more — that the
// cluster's dispatch gate and µ cap, the feeder's cache budget and the
// fleet's planned memory count through. The zero Ledger holds nothing.
type Ledger struct{ tiles, widest int }

// Add returns the ledger with one more rows×cols assignment in flight.
func (l Ledger) Add(rows, cols int) Ledger {
	l.tiles += rows * cols
	l.widest = max(l.widest, rows+cols)
	return l
}

// Blocks returns the blocks the ledger counts.
func (l Ledger) Blocks() int { return l.tiles + (StageDepth+1)*l.widest }

// MaxSide returns the largest µ ≥ 0 whose µ×µ chunk alone fits mem
// blocks: Ledger{}.Add(µ, µ).Blocks() = µ² + 2(StageDepth+1)µ ≤ mem.
func MaxSide(mem int) int { return core.MaxChunkSide(mem, StageDepth+1) }

// CacheBudget returns the operand-cache capacity in blocks for a worker
// advertising mem blocks while it holds held blocks outside the cache (a
// Ledger's Blocks): exactly the memory beyond them. mem ≤ 0 means
// unadvertised, which gets the default budget.
func CacheBudget(mem, held int) int {
	if mem <= 0 {
		return DefaultCacheBlocks
	}
	return max(mem-held, 0)
}

// Block IDs name operand and result blocks within one session. An ID
// packs the block role (A, B or C — an LU panel block shipped negated
// in A-role must never collide with the same coordinates in B-role), a
// job number and the block coordinates.
// ID 0 is reserved for "untracked": the block is always shipped and
// never cached (the valid bit keeps A(0,0) of job 0 from encoding as 0).
const (
	blockIDValid = uint64(1) << 63
	blockIDRoleB = uint64(1) << 62
	blockIDRoleC = uint64(1) << 61
	blockIDJobSh = 32
	blockIDRowSh = 16
	coordMask    = uint64(0xFFFF)
	jobMask      = uint64(0x1FFFFFFF)
)

// ABlockID returns the session-unique ID of A-role operand block (i, k)
// of the given job. Coordinates or job numbers beyond the packed field
// widths return the untracked sentinel 0 — the block is then always
// shipped, degrading bandwidth, never correctness (a masked ID could
// alias a different block and silently serve wrong data).
func ABlockID(job uint32, i, k int) uint64 {
	if !idFieldsFit(job, i, k) {
		return 0
	}
	return blockIDValid |
		uint64(job)<<blockIDJobSh |
		uint64(i)<<blockIDRowSh |
		uint64(k)
}

// ValidBlockID reports whether id is a well-formed tracked block ID:
// the reserved valid bit is set (0 is the untracked sentinel, anything
// else without the bit is wire corruption).
func ValidBlockID(id uint64) bool { return id&blockIDValid != 0 }

// BBlockID returns the session-unique ID of B-role operand block (k, j)
// of the given job, with the same out-of-range degradation as ABlockID.
func BBlockID(job uint32, k, j int) uint64 {
	if !idFieldsFit(job, k, j) {
		return 0
	}
	return blockIDValid | blockIDRoleB |
		uint64(job)<<blockIDJobSh |
		uint64(k)<<blockIDRowSh |
		uint64(j)
}

// CBlockID returns the session-unique ID of C-result block (i, j) of
// the given job, or 0 when the coordinates or the job number do not fit
// the packed fields. The cluster refuses at admission a job whose last
// C tile has none, and a worker refuses an assignment that reaches past
// them.
func CBlockID(job uint32, i, j int) uint64 {
	if !idFieldsFit(job, i, j) {
		return 0
	}
	return blockIDValid | blockIDRoleC |
		uint64(job)<<blockIDJobSh |
		uint64(i)<<blockIDRowSh |
		uint64(j)
}

// CBlockCoords unpacks a C-role block ID back into (job, i, j). ok is
// false for IDs that are not well-formed C-role IDs.
func CBlockCoords(id uint64) (job uint32, i, j int, ok bool) {
	job = uint32(id >> blockIDJobSh & jobMask)
	i = int(id >> blockIDRowSh & coordMask)
	j = int(id & coordMask)
	if id == 0 || CBlockID(job, i, j) != id {
		return 0, 0, 0, false
	}
	return job, i, j, true
}

// idFieldsFit reports whether a (job, row, col) triple fits the packed
// ID fields without truncation.
func idFieldsFit(job uint32, row, col int) bool {
	return uint64(job) <= jobMask &&
		row >= 0 && uint64(row) <= coordMask &&
		col >= 0 && uint64(col) <= coordMask
}

// AllZeroBits reports whether every coefficient of a block is bitwise
// +0.0 — the one initial value the result protocol can announce with a
// flag instead of a payload without risking a bit-exactness drift
// (copying a −0.0 or denormal through CZero would not round-trip).
func AllZeroBits(buf []float64) bool {
	for _, v := range buf {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	return true
}

// CommStats counts the block traffic of one master-side session (or
// run): operand blocks that went over the wire versus blocks the delta
// protocol skipped because the worker already held them, plus the C
// tiles' one trip down and one trip up.
type CommStats struct {
	BlocksShipped int64 // operand blocks whose payload was sent
	BlocksSkipped int64 // operand blocks served from the worker's cache
	BytesSaved    int64 // payload bytes the skips avoided (8·q² each)

	// The result path. CDown counts C blocks whose initial value was
	// shipped down with payload (CShip; CZero ships nothing). CUp counts
	// C blocks returned in Results.
	CDown int64
	CUp   int64
}

// Add accumulates other into s.
func (s *CommStats) Add(other CommStats) {
	s.BlocksShipped += other.BlocksShipped
	s.BlocksSkipped += other.BlocksSkipped
	s.BytesSaved += other.BytesSaved
	s.CDown += other.CDown
	s.CUp += other.CUp
}

// lruEntry is one resident block on the intrusive recency list. The
// master-side mirror stores nil buffers (it only needs the IDs); the
// worker side stores the block and whether the cache owns it (pooled
// TCP decode) or merely references it (the zero-copy in-process path).
// Entries recycle through a global sync.Pool so the steady-state delta
// path allocates nothing per block.
type lruEntry struct {
	id         uint64
	buf        []float64
	owned      bool
	prev, next *lruEntry
}

var lruEntryPool = sync.Pool{New: func() any { return new(lruEntry) }}

// blockCache is the deterministic recency-ordered cache both ends
// mirror. head is most recently used; evictTo picks its victims from
// this order and the Set in hand. Given the same operation sequence,
// capacities and manifests, two blockCaches hold the same IDs in the
// same order — the protocol invariant. Caches themselves recycle
// through a sync.Pool (sessions are born and die per connection) so a
// reconnect-heavy server does not rebuild maps from scratch each time.
type blockCache struct {
	m          map[uint64]*lruEntry
	head, tail *lruEntry
}

var blockCachePool = sync.Pool{
	New: func() any { return &blockCache{m: make(map[uint64]*lruEntry)} },
}

func (c *blockCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *blockCache) pushFront(e *lruEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// use marks id as most recently used and returns its entry, or nil
// when it is not resident.
func (c *blockCache) use(id uint64) *lruEntry {
	e := c.m[id]
	if e != nil && c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e
}

// insert pins a block as most recently used. Re-inserting an ID that is
// already resident replaces its buffer, releasing the old one if owned
// (that only happens if the peer's mirror drifted, but it must not leak).
func (c *blockCache) insert(id uint64, buf []float64, owned bool, pool *BlockPool) {
	if e := c.use(id); e != nil {
		if e.owned {
			pool.Put(e.buf)
		}
		e.buf, e.owned = buf, owned
		return
	}
	e := lruEntryPool.Get().(*lruEntry)
	e.id, e.buf, e.owned = id, buf, owned
	c.m[id] = e
	c.pushFront(e)
}

// evictTo drops entries until at most cap remain, choosing victims
// against aids, the A-role manifest of the Set in hand. A resident
// block is hot when it is an A-role block of the same (job, block-row)
// as one of aids: the cutter's tour keeps a worker on its block-row, so
// its next chunk reads that row's A blocks again, in the same k order.
// The victim is the least recently used block that is not hot; only
// when every resident block is hot does the most recently used one go.
// For the cyclic k scan of a row that does not fit, that is Belady's
// choice: the row keeps its first cap blocks instead of losing each one
// just before it is read again (plain LRU hits nothing there).
// The owned buffers of the evicted entries are appended to freed and
// returned: the caller decides when they go back to the pool (the
// worker must not recycle a buffer the update in hand still reads).
func (c *blockCache) evictTo(cap int, aids []uint64, freed [][]float64) [][]float64 {
	if cap < 0 {
		cap = 0
	}
	scan := c.tail // every entry behind scan is hot
	for len(c.m) > cap {
		for scan != nil && hotRow(scan.id, aids) {
			scan = scan.prev
		}
		e := scan
		if e == nil {
			e = c.head
		} else {
			scan = scan.prev
		}
		c.unlink(e)
		delete(c.m, e.id)
		if e.owned {
			freed = append(freed, e.buf)
		}
		e.buf = nil
		lruEntryPool.Put(e)
	}
	return freed
}

// hotRow reports whether id is an A-role block ID of the same job and
// block-row as one of aids (the role, job and row fields sit above the
// column field, so one shift compares all three).
func hotRow(id uint64, aids []uint64) bool {
	if id&(blockIDRoleB|blockIDRoleC) != 0 {
		return false
	}
	for _, a := range aids {
		if a>>blockIDRowSh == id>>blockIDRowSh {
			return true
		}
	}
	return false
}

// release drains the cache (returning owned buffers to the pool) and
// recycles it for the next session.
func (c *blockCache) release(pool *BlockPool) {
	pool.PutAll(c.evictTo(0, nil, nil))
	blockCachePool.Put(c)
}

// SetBuilder is the master side of the delta protocol for ONE worker
// session: it owns the mirror of the worker's resident set and rewrites
// fully-materialized Sets into deltas. It is not safe for concurrent
// use; each session's dispatcher owns its builder.
type SetBuilder struct {
	// Mem is the worker's advertised memory in blocks (0 = unknown,
	// which budgets DefaultCacheBlocks).
	Mem int

	Stats  CommStats
	mirror *blockCache
}

// StampIDs fills a Set's manifest for the k-th update set of the chunk
// whose top-left block is (i0, j0): A-role IDs for rows i0.. at column
// k, B-role IDs for row k at columns j0.., one per operand the Set
// already holds (an LU task's sets are its stage's panels, so its k is
// the stage).
func StampIDs(set *Set, job uint32, i0, j0, k int) {
	for i := range set.A {
		set.AIDs = append(set.AIDs, ABlockID(job, i0+i, k))
	}
	for j := range set.B {
		set.BIDs = append(set.BIDs, BBlockID(job, k, j0+j))
	}
}

// Filter rewrites a materialized Set into a delta against the worker's
// mirrored resident set: payloads of blocks the worker already holds
// are dropped (owned ones released to the pool), newly shipped blocks
// enter the mirror, and the Set's Cap announces the capacity the worker
// must mirror — CacheBudget of the advertised memory minus held, the
// Ledger of what the worker holds outside the cache. The Set carries
// one ID per operand (StampIDs); an ID of 0 is untracked and always
// ships.
func (sb *SetBuilder) Filter(set *Set, held int, pool *BlockPool) *Set {
	if sb.mirror == nil {
		sb.mirror = blockCachePool.Get().(*blockCache)
	}
	set.Cap = CacheBudget(sb.Mem, held)
	sb.filterHalf(set.A, set.AIDs, set.Owned, pool)
	sb.filterHalf(set.B, set.BIDs, set.Owned, pool)
	sb.mirror.evictTo(set.Cap, set.AIDs, nil) // the mirror holds IDs only: nothing to free
	return set
}

// Release recycles the builder's mirror at session end.
func (sb *SetBuilder) Release() {
	if sb.mirror != nil {
		sb.mirror.release(nil)
		sb.mirror = nil
	}
}

func (sb *SetBuilder) filterHalf(blocks [][]float64, ids []uint64, owned bool, pool *BlockPool) {
	for i, id := range ids {
		if id == 0 { // untracked: always ship
			sb.Stats.BlocksShipped++
			continue
		}
		if sb.mirror.use(id) != nil {
			sb.Stats.BlocksSkipped++
			sb.Stats.BytesSaved += int64(len(blocks[i])) * 8
			if owned {
				pool.Put(blocks[i])
			}
			blocks[i] = nil
			continue
		}
		sb.mirror.insert(id, nil, false, nil)
		sb.Stats.BlocksShipped++
	}
}

// opCache is the worker side: resident operand blocks keyed by ID, fed
// and evicted in exact mirror of the master's SetBuilder.
type opCache struct {
	cache *blockCache
	pool  *BlockPool
	// evicted holds the buffers the last resolve evicted: its Set may
	// still point at them (whenever Cap is below the Set's own tracked
	// blocks), so they go back to the pool once it is applied.
	evicted [][]float64
}

func newOpCache(pool *BlockPool) *opCache {
	return &opCache{cache: blockCachePool.Get().(*blockCache), pool: pool}
}

// resolve applies a delta Set against the cache: shipped blocks are
// pinned (transferring ownership to the cache when the Set owns them),
// manifest references are filled from residency, and the cache is then
// evicted down to the announced capacity — IDs at once, in lock-step
// with the master's mirror; buffers once the caller has applied this
// Set (putEvicted). A Set without one ID per operand is refused. It
// returns the number of blocks served from the cache.
func (oc *opCache) resolve(set *Set) (hits int64, err error) {
	if len(set.AIDs) != len(set.A) || len(set.BIDs) != len(set.B) {
		return 0, fmt.Errorf("engine: set %d manifest has %d+%d ids for %d+%d operands",
			set.K, len(set.AIDs), len(set.BIDs), len(set.A), len(set.B))
	}
	h, err := oc.resolveHalf(set.A, set.AIDs, set.Owned)
	if err != nil {
		return hits, err
	}
	hits += h
	if h, err = oc.resolveHalf(set.B, set.BIDs, set.Owned); err != nil {
		return hits, err
	}
	hits += h
	oc.evicted = oc.cache.evictTo(set.Cap, set.AIDs, oc.evicted)
	return hits, nil
}

func (oc *opCache) resolveHalf(blocks [][]float64, ids []uint64, owned bool) (hits int64, err error) {
	for i, id := range ids {
		if id == 0 {
			if blocks[i] == nil {
				return hits, fmt.Errorf("engine: untracked manifest entry %d without payload", i)
			}
			continue
		}
		if blocks[i] != nil {
			oc.cache.insert(id, blocks[i], owned, oc.pool)
			continue
		}
		e := oc.cache.use(id)
		if e == nil {
			return hits, fmt.Errorf("engine: set references block %#x not resident in the operand cache", id)
		}
		blocks[i] = e.buf
		hits++
	}
	return hits, nil
}

// putEvicted returns the buffers the last resolve evicted to the pool,
// once the Set it resolved has been applied.
func (oc *opCache) putEvicted() {
	oc.pool.PutAll(oc.evicted)
	oc.evicted = oc.evicted[:0]
}

// releaseUncached returns the Set's buffers that did NOT enter the
// cache to the pool after the update is applied: every tracked shipped
// block is cache-owned (released on eviction), so only untracked (ID 0)
// payloads are the consumer's to free.
func releaseUncached(set *Set, pool *BlockPool) {
	if !set.Owned {
		return
	}
	for i, id := range set.AIDs {
		if id == 0 {
			pool.Put(set.A[i])
		}
	}
	for i, id := range set.BIDs {
		if id == 0 {
			pool.Put(set.B[i])
		}
	}
}

// release drains every resident block and recycles the cache (session
// end).
func (oc *opCache) release() {
	oc.putEvicted()
	oc.evicted = nil
	if oc.cache != nil {
		oc.cache.release(oc.pool)
		oc.cache = nil
	}
}
