// Package ooc provides an out-of-core block store: the §9 connection of
// the paper ("the design of parallel algorithms for limited memory
// processors is very similar to the design of out-of-core routines").
//
// A Store holds the q×q blocks of a matrix on disk and exposes them
// through a strict m-block buffer cache, so the maximum re-use algorithm
// of §4 runs unchanged against matrices that do not fit in memory: the
// communication count of the master-worker analysis becomes the I/O count
// of the out-of-core analysis. The cache uses LRU eviction with
// write-back, and every hit/miss/write-back is counted so tests can pin
// the I/O volume against the §4 accounting.
package ooc

import (
	"fmt"
	"io"
	"os"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// Store is a disk-backed blocked matrix with an m-block LRU cache.
type Store struct {
	BR, BC, Q int
	f         *os.File
	cache     map[int64]*entry
	head      *entry // most recently used
	tail      *entry // least recently used
	capacity  int
	stats     Stats
}

// Stats counts cache and I/O activity.
type Stats struct {
	Hits       int64
	Misses     int64 // block reads from disk
	WriteBacks int64 // dirty block writes to disk
	Flushes    int64
}

type entry struct {
	key        int64
	data       []float64
	dirty      bool
	prev, next *entry
}

// Create builds a zero-initialized store of br×bc blocks of size q backed
// by the file at path, caching at most m blocks in memory (m ≥ 1).
func Create(path string, br, bc, q, m int) (*Store, error) {
	if br < 1 || bc < 1 || q < 1 {
		return nil, fmt.Errorf("ooc: invalid shape %dx%d blocks of q=%d", br, bc, q)
	}
	if m < 1 {
		return nil, fmt.Errorf("ooc: cache capacity %d < 1", m)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ooc: %w", err)
	}
	size := int64(br) * int64(bc) * int64(q) * int64(q) * 8
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: truncate: %w", err)
	}
	return &Store{
		BR: br, BC: bc, Q: q,
		f:        f,
		cache:    make(map[int64]*entry),
		capacity: m,
	}, nil
}

// FromBlocked creates a store and fills it with the contents of src.
func FromBlocked(path string, src *matrix.Blocked, m int) (*Store, error) {
	st, err := Create(path, src.BR, src.BC, src.Q, m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < src.BR; i++ {
		for j := 0; j < src.BC; j++ {
			if err := st.writeBlock(st.key(i, j), src.Block(i, j).Data); err != nil {
				st.Close()
				return nil, err
			}
		}
	}
	return st, nil
}

// Close flushes dirty blocks, closes and removes the backing file.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.Flush()
	name := s.f.Name()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	os.Remove(name)
	s.f = nil
	return err
}

// Flush writes every dirty cached block back to disk.
func (s *Store) Flush() error {
	for _, e := range s.cache {
		if e.dirty {
			if err := s.writeBlock(e.key, e.data); err != nil {
				return err
			}
			e.dirty = false
			s.stats.WriteBacks++
		}
	}
	s.stats.Flushes++
	return nil
}

// Stats returns the I/O counters so far.
func (s *Store) Stats() Stats { return s.stats }

// Resident returns the number of blocks currently cached.
func (s *Store) Resident() int { return len(s.cache) }

func (s *Store) key(i, j int) int64 { return int64(i)*int64(s.BC) + int64(j) }

func (s *Store) offset(key int64) int64 { return key * int64(s.Q) * int64(s.Q) * 8 }

func (s *Store) readBlock(key int64, dst []float64) error {
	r := io.NewSectionReader(s.f, s.offset(key), int64(8*len(dst)))
	if err := matrix.ReadFloats(r, dst); err != nil {
		return fmt.Errorf("ooc: read block %d: %w", key, err)
	}
	return nil
}

func (s *Store) writeBlock(key int64, src []float64) error {
	if err := matrix.WriteFloats(io.NewOffsetWriter(s.f, s.offset(key)), src); err != nil {
		return fmt.Errorf("ooc: write block %d: %w", key, err)
	}
	return nil
}

// touch moves e to the MRU position.
func (s *Store) touch(e *entry) {
	if s.head == e {
		return
	}
	// unlink
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	// push front
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// load pins block (i, j) into the cache and returns its entry.
func (s *Store) load(i, j int) (*entry, error) {
	if i < 0 || i >= s.BR || j < 0 || j >= s.BC {
		return nil, fmt.Errorf("ooc: block (%d,%d) out of %dx%d", i, j, s.BR, s.BC)
	}
	key := s.key(i, j)
	if e, ok := s.cache[key]; ok {
		s.stats.Hits++
		s.touch(e)
		return e, nil
	}
	s.stats.Misses++
	// evict LRU if full
	if len(s.cache) >= s.capacity {
		victim := s.tail
		if victim == nil {
			return nil, fmt.Errorf("ooc: cache bookkeeping corrupted")
		}
		if victim.dirty {
			if err := s.writeBlock(victim.key, victim.data); err != nil {
				return nil, err
			}
			s.stats.WriteBacks++
		}
		if victim.prev != nil {
			victim.prev.next = nil
		}
		s.tail = victim.prev
		if s.head == victim {
			s.head = nil
		}
		delete(s.cache, victim.key)
	}
	e := &entry{key: key, data: make([]float64, s.Q*s.Q)}
	if err := s.readBlock(key, e.data); err != nil {
		return nil, err
	}
	s.cache[key] = e
	s.touch(e)
	return e, nil
}

// Read copies block (i, j) into dst (len ≥ q²).
func (s *Store) Read(i, j int, dst []float64) error {
	e, err := s.load(i, j)
	if err != nil {
		return err
	}
	copy(dst, e.data)
	return nil
}

// Update applies fn to block (i, j) in place and marks it dirty.
func (s *Store) Update(i, j int, fn func(blk []float64)) error {
	e, err := s.load(i, j)
	if err != nil {
		return err
	}
	fn(e.data)
	e.dirty = true
	return nil
}

// ToBlocked reads the whole store back into memory (for verification).
func (s *Store) ToBlocked() (*matrix.Blocked, error) {
	out := matrix.NewBlocked(s.BR, s.BC, s.Q)
	if err := s.Flush(); err != nil {
		return nil, err
	}
	for i := 0; i < s.BR; i++ {
		for j := 0; j < s.BC; j++ {
			// bypass the cache for a consistent on-disk view of clean
			// blocks; dirty ones were just flushed
			if err := s.readBlock(s.key(i, j), out.Block(i, j).Data); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MultiplyMaxReuse computes C ← C + A·B where all three operands live in
// out-of-core stores, using the §4.1 maximum re-use loop structure: µ is
// derived from the C store's cache capacity (1 + µ + µ² ≤ m), a µ×µ tile
// of C is pinned (via repeated access) while rows of B and single blocks
// of A stream through their own caches. The returned stats expose the I/O
// counts, which mirror the communication counts of the in-core analysis.
func MultiplyMaxReuse(c, a, b *Store) (Stats, error) {
	if a.BR != c.BR || b.BC != c.BC || a.BC != b.BR || a.Q != b.Q || a.Q != c.Q {
		return Stats{}, fmt.Errorf("ooc: shape mismatch")
	}
	mu := 0
	for 1+(mu+1)+(mu+1)*(mu+1) <= c.capacity {
		mu++
	}
	if mu < 1 {
		return Stats{}, fmt.Errorf("ooc: C cache of %d blocks too small (need 1+µ+µ² ≤ m)", c.capacity)
	}
	q := c.Q
	aBuf := make([]float64, q*q)
	bBuf := make([]float64, q*q)
	for i0 := 0; i0 < c.BR; i0 += mu {
		mi := minInt(mu, c.BR-i0)
		for j0 := 0; j0 < c.BC; j0 += mu {
			mj := minInt(mu, c.BC-j0)
			for k := 0; k < a.BC; k++ {
				for i := 0; i < mi; i++ {
					if err := a.Read(i0+i, k, aBuf); err != nil {
						return c.stats, err
					}
					for j := 0; j < mj; j++ {
						if err := b.Read(k, j0+j, bBuf); err != nil {
							return c.stats, err
						}
						err := c.Update(i0+i, j0+j, func(blk []float64) {
							blas.BlockUpdate(blk, aBuf, bBuf, q)
						})
						if err != nil {
							return c.stats, err
						}
					}
				}
			}
		}
	}
	if err := c.Flush(); err != nil {
		return c.stats, err
	}
	return c.stats, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
