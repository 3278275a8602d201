// Package trace records and renders execution traces (Gantt charts) of
// master-worker schedules, in the style of Figures 7 and 8 of the paper:
// one lane for the master's one-port link and one lane per worker.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a span for rendering.
type Kind int

const (
	// Comm is a master-link communication span.
	Comm Kind = iota
	// Compute is a worker computation span.
	Compute
	// Spec is a speculative (duplicate) computation span: work racing a
	// straggler's in-flight copy, rendered distinctly so re-dispatch
	// decisions can be audited on the chart.
	Spec
)

// Span is one rectangle of the Gantt chart.
type Span struct {
	Lane  string // "M" for the master link, "P1".."Pp" for workers
	Kind  Kind
	Start float64
	End   float64
	Label string
}

// Trace is an append-only collection of spans.
type Trace struct {
	Spans []Span
}

// Add appends a span; zero-length spans are dropped.
func (t *Trace) Add(lane string, kind Kind, start, end float64, label string) {
	if t == nil || end <= start {
		return
	}
	t.Spans = append(t.Spans, Span{Lane: lane, Kind: kind, Start: start, End: end, Label: label})
}

// Makespan returns the latest end time recorded.
func (t *Trace) Makespan() float64 {
	var m float64
	for _, s := range t.Spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// Lanes returns the lane names in display order: M first, then workers in
// natural order.
func (t *Trace) Lanes() []string {
	seen := map[string]bool{}
	var lanes []string
	for _, s := range t.Spans {
		if !seen[s.Lane] {
			seen[s.Lane] = true
			lanes = append(lanes, s.Lane)
		}
	}
	sort.Slice(lanes, func(a, b int) bool {
		la, lb := lanes[a], lanes[b]
		if la == "M" {
			return true
		}
		if lb == "M" {
			return false
		}
		return laneKey(la) < laneKey(lb)
	})
	return lanes
}

func laneKey(l string) int {
	var n int
	fmt.Sscanf(l, "P%d", &n)
	return n
}

// ASCII renders the trace as a fixed-width Gantt chart with the given
// number of character columns. Each lane shows '#' for communication, '='
// for computation, '%' for speculative computation and spaces for idle
// time. It is intentionally coarse —
// it exists to eyeball schedules like Figures 7 and 8, not to measure them.
func (t *Trace) ASCII(width int) string {
	if width < 10 {
		width = 10
	}
	ms := t.Makespan()
	if ms == 0 {
		return "(empty trace)\n"
	}
	scale := float64(width) / ms
	var b strings.Builder
	for _, lane := range t.Lanes() {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range t.Spans {
			if s.Lane != lane {
				continue
			}
			ch := byte('=')
			switch s.Kind {
			case Comm:
				ch = '#'
			case Spec:
				ch = '%'
			}
			lo := int(s.Start * scale)
			hi := int(s.End * scale)
			if hi == lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-4s|%s|\n", lane, string(row))
	}
	fmt.Fprintf(&b, "%-4s|0%*s|\n", "t", width-1, fmt.Sprintf("%.4g", ms))
	return b.String()
}

// BusyTime returns the total busy time of a lane.
func (t *Trace) BusyTime(lane string) float64 {
	var b float64
	for _, s := range t.Spans {
		if s.Lane == lane {
			b += s.End - s.Start
		}
	}
	return b
}
