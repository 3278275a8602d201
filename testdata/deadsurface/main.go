// Command fixture plants dead and live surface for the dead-surface
// check's own test: unused, guarded.reset and record.note are the only
// names it may report.
package main

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Sink is satisfied by counter directly and by tally through its
// embedded counter.
type Sink interface{ Put(v int) }

type counter struct{ n int }

func (c *counter) Put(v int) { c.n += v }

type tally struct{ *counter }

type record struct {
	Name string `json:"name"`
	note string
}

type guarded struct {
	sync.Mutex
	hits int
}

func (g *guarded) bump() {
	g.Lock()
	g.hits++
	g.Unlock()
}

func (g *guarded) reset() { g.hits = 0 }

func unused() int { return 1 }

// portable is called only from the big-endian build's file.
func portable() int { return 2 }

func fill(sinks ...Sink) {
	for _, s := range sinks {
		s.Put(1)
	}
}

func main() {
	c := &counter{}
	fill(c, tally{c})
	var g guarded
	g.bump()
	out, _ := json.Marshal(record{Name: "x"})
	fmt.Println(c.n, g.hits, string(out))
}
