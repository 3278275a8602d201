//go:build !poolcheck

package engine

import "sync"

// poolCheck is empty without the poolcheck tag: the checks cost nothing.
type poolCheck struct{}

func (p *BlockPool) class(n int) *sync.Pool {
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

// take returns a free buffer of length n, or nil.
func (p *BlockPool) take(n int) []float64 {
	w, _ := p.class(n).Get().(*[]float64)
	if w == nil {
		return nil
	}
	b := *w
	*w = nil
	p.headers.Put(w)
	return b
}

// give files a released buffer under its length.
func (p *BlockPool) give(b []float64) {
	w := p.headers.Get().(*[]float64)
	*w = b
	p.class(len(b)).Put(w)
}
