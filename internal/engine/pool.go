package engine

import (
	"sync"
	"sync/atomic"
)

// BlockPool recycles the []float64 block buffers that dominate the
// runtimes' steady-state traffic. Buffers are segregated by length
// (q² for block payloads), so a pool serves mixed-q workloads without
// ever handing a short buffer to a caller that needs a long one.
//
// The arenas are sync.Pool-backed, but buffers cross the pool boundary
// through recycled *[]float64 wrappers: storing a bare slice in a
// sync.Pool boxes its header on every Put, which would put one
// allocation back on every message we just depooled. With the wrapper
// pool the steady state allocates nothing (sync.Pool may shed items at
// GC, after which both arenas refill on demand).
//
// A nil *BlockPool is valid and means "no pooling": Get falls back to
// plain allocation and Put discards, which is what the unpooled arm of
// BenchmarkTransport measures.
//
// Under the poolcheck build tag the pool checks its own hand-offs
// instead (pool_check.go): a released buffer is poisoned with NaNs, and
// releasing one twice panics.
type BlockPool struct {
	mu    sync.RWMutex
	pools map[int]*sync.Pool
	// headers recycles the *[]float64 boxes that carry buffers in and
	// out of the size-class pools.
	headers sync.Pool
	check   poolCheck // empty without the poolcheck tag
	// fresh counts the buffers Get allocated because none was free.
	fresh atomic.Int64
}

// NewBlockPool builds an empty pool; size classes appear on first use.
func NewBlockPool() *BlockPool {
	p := &BlockPool{pools: make(map[int]*sync.Pool)}
	p.headers.New = func() any { return new([]float64) }
	return p
}

// Get returns a buffer of length n with arbitrary contents; the caller
// must overwrite it fully before reading.
func (p *BlockPool) Get(n int) []float64 {
	if p == nil || n <= 0 {
		return make([]float64, n)
	}
	if b := p.take(n); b != nil {
		return b
	}
	p.fresh.Add(1)
	return make([]float64, n)
}

// Fresh returns how many buffers the pool has allocated rather than
// reused: in a steady state it stops growing.
func (p *BlockPool) Fresh() int64 {
	if p == nil {
		return 0
	}
	return p.fresh.Load()
}

// GetCopy returns a pooled buffer holding a copy of src.
func (p *BlockPool) GetCopy(src []float64) []float64 {
	buf := p.Get(len(src))
	copy(buf, src)
	return buf
}

// Put releases a buffer for reuse. The caller must not touch it again;
// the explicit release on result-ack is what keeps the steady state
// allocation-free. Put tolerates nil pools and nil buffers.
func (p *BlockPool) Put(b []float64) {
	if p == nil || len(b) == 0 {
		return
	}
	p.give(b)
}

// PutAll releases every buffer of a block list.
func (p *BlockPool) PutAll(bs [][]float64) {
	if p == nil {
		return
	}
	for _, b := range bs {
		p.Put(b)
	}
}

// Message recycling: the steady-state path sends one Set per update
// step, so the *Set structs and their [][]float64 headers are recycled
// alongside the block buffers — the consumer (a serializing transport
// after encode, or the worker after applying) puts the message back.
// Assign and Result structs recycle the same way. A nil pool allocates
// fresh messages.

var (
	setPool    = sync.Pool{New: func() any { return new(Set) }}
	assignPool = sync.Pool{New: func() any { return new(Assign) }}
	resultPool = sync.Pool{New: func() any { return new(Result) }}
)

// GetSet returns a Set whose A and B headers have length 0 (capacity
// retained from earlier lives).
func (p *BlockPool) GetSet() *Set {
	if p == nil {
		return new(Set)
	}
	s := setPool.Get().(*Set)
	*s = Set{A: s.A[:0], B: s.B[:0], AIDs: s.AIDs[:0], BIDs: s.BIDs[:0]}
	return s
}

// PutSet recycles a consumed Set. The buffers its headers point at must
// already be released (or unowned); only the headers are retained.
func (p *BlockPool) PutSet(s *Set) {
	if p == nil || s == nil {
		return
	}
	setPool.Put(s)
}

// GetAssign returns a zero Assign, its Blocks, CFlags and Drop capacity
// kept.
func (p *BlockPool) GetAssign() *Assign {
	if p == nil {
		return new(Assign)
	}
	a := assignPool.Get().(*Assign)
	*a = Assign{Blocks: a.Blocks[:0], CFlags: a.CFlags[:0], Drop: a.Drop[:0]}
	return a
}

// PutAssign recycles a consumed Assign. When its blocks live on
// elsewhere (a worker's finished tile, on its way home), the caller
// must nil the Blocks header first.
func (p *BlockPool) PutAssign(a *Assign) {
	if p == nil || a == nil {
		return
	}
	assignPool.Put(a)
}

// GetResult returns a Result whose Blocks header has length 0.
func (p *BlockPool) GetResult() *Result {
	if p == nil {
		return new(Result)
	}
	r := resultPool.Get().(*Result)
	*r = Result{Blocks: r.Blocks[:0]}
	return r
}

// PutResult recycles a consumed Result; its tile blocks are the
// caller's to release first.
func (p *BlockPool) PutResult(r *Result) {
	if p == nil || r == nil {
		return
	}
	clear(r.Blocks) // the recycled header must not pin the tile
	resultPool.Put(r)
}
