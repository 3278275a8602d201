//go:build poolcheck

package engine

import (
	"fmt"
	"math"
	"sync"
)

// Under the poolcheck tag the pool is a checked free list instead of a
// sync.Pool: every free buffer stays known to it (a sync.Pool sheds
// buffers at GC, so it could not tell a second release from a first),
// a released buffer is overwritten with poisonBits, and releasing a
// buffer that is already free panics. A reader that kept a block after
// handing it back then sees NaNs, which no bit-exact check lets pass,
// instead of plausible floats from the pool's next taker.

// poisonBits is a signalling NaN whose payload spells the pattern, so a
// poisoned value found in a result names its cause.
const poisonBits = 0x7ff4_dead_0bad_f00d

type poolCheck struct {
	mu   sync.Mutex
	free map[*float64]bool   // first element of every free buffer
	byN  map[int][][]float64 // the free buffers, by length
}

func (p *BlockPool) take(n int) []float64 {
	c := &p.check
	c.mu.Lock()
	defer c.mu.Unlock()
	stack := c.byN[n]
	if len(stack) == 0 {
		return nil
	}
	b := stack[len(stack)-1]
	c.byN[n] = stack[:len(stack)-1]
	delete(c.free, &b[0])
	return b
}

func (p *BlockPool) give(b []float64) {
	c := &p.check
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.free[&b[0]] {
		panic(fmt.Sprintf("engine: poolcheck: block %p of %d elements released twice", &b[0], len(b)))
	}
	poison := math.Float64frombits(poisonBits)
	for i := range b {
		b[i] = poison
	}
	if c.free == nil {
		c.free = make(map[*float64]bool)
		c.byN = make(map[int][][]float64)
	}
	c.free[&b[0]] = true
	c.byN[len(b)] = append(c.byN[len(b)], b)
}
