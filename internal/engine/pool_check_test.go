//go:build poolcheck

package engine

import (
	"math"
	"testing"
)

// TestPoolcheckPoisonsAndCatchesDoublePut: under the tag a released
// buffer reads as the poison pattern, the pool hands it out again, and
// a second release of a free buffer panics.
func TestPoolcheckPoisonsAndCatchesDoublePut(t *testing.T) {
	p := NewBlockPool()
	b := p.Get(16)
	for i := range b {
		b[i] = float64(i)
	}
	p.Put(b)
	for i, v := range b {
		if math.Float64bits(v) != poisonBits {
			t.Fatalf("released element %d reads %v, want the poison pattern", i, v)
		}
	}
	if got := p.Get(16); &got[0] != &b[0] {
		t.Fatal("the checked pool did not hand the released buffer out again")
	}
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("a second Put of a free buffer did not panic")
		}
	}()
	p.Put(b)
}
