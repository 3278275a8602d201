package trace

import (
	"strings"
	"testing"
)

func sample() *Trace {
	tr := &Trace{}
	tr.Add("M", Comm, 0, 2, "C→P1")
	tr.Add("P1", Compute, 2, 5, "upd")
	tr.Add("M", Comm, 2, 3, "AB→P2")
	tr.Add("P2", Compute, 3, 10, "upd")
	return tr
}

func TestAddDropsEmptySpans(t *testing.T) {
	tr := &Trace{}
	tr.Add("M", Comm, 5, 5, "zero")
	tr.Add("M", Comm, 5, 4, "negative")
	if len(tr.Spans) != 0 {
		t.Fatalf("%d spans recorded", len(tr.Spans))
	}
	var nilTrace *Trace
	nilTrace.Add("M", Comm, 0, 1, "must not panic")
}

func TestMakespan(t *testing.T) {
	if got := sample().Makespan(); got != 10 {
		t.Fatalf("makespan %v, want 10", got)
	}
	if (&Trace{}).Makespan() != 0 {
		t.Fatal("empty trace makespan != 0")
	}
}

func TestLanesOrdered(t *testing.T) {
	tr := &Trace{}
	tr.Add("P10", Compute, 0, 1, "")
	tr.Add("P2", Compute, 0, 1, "")
	tr.Add("M", Comm, 0, 1, "")
	got := tr.Lanes()
	want := []string{"M", "P2", "P10"}
	if len(got) != 3 {
		t.Fatalf("lanes %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lanes %v, want %v", got, want)
		}
	}
}

func TestASCIIRendering(t *testing.T) {
	s := sample().ASCII(40)
	if !strings.Contains(s, "M   |") || !strings.Contains(s, "P1  |") || !strings.Contains(s, "P2  |") {
		t.Fatalf("missing lanes:\n%s", s)
	}
	if !strings.Contains(s, "#") || !strings.Contains(s, "=") {
		t.Fatalf("missing glyphs:\n%s", s)
	}
	if (&Trace{}).ASCII(40) != "(empty trace)\n" {
		t.Fatal("empty trace rendering")
	}
	// tiny width is clamped, must not panic
	_ = sample().ASCII(1)
}

func TestBusyAndUtilization(t *testing.T) {
	tr := sample()
	if tr.BusyTime("M") != 3 {
		t.Fatalf("BusyTime(M) = %v", tr.BusyTime("M"))
	}
	if tr.BusyTime("P2") != 0.7*tr.Makespan() {
		t.Fatalf("BusyTime(P2) = %v of makespan %v", tr.BusyTime("P2"), tr.Makespan())
	}
	if (&Trace{}).BusyTime("M") != 0 {
		t.Fatal("empty trace busy time")
	}
}

func TestSVGRendering(t *testing.T) {
	s := sample().SVG(SVGOptions{})
	for _, want := range []string{"<svg", "</svg>", "M", "P1", "P2", "<rect", "#30638e", "#4c9f70"} {
		if !strings.Contains(s, want) {
			t.Fatalf("SVG missing %q:\n%s", want, s)
		}
	}
	// C transfers get the result color
	tr := &Trace{}
	tr.Add("M", Comm, 0, 1, "C#0→P1")
	if !strings.Contains(tr.SVG(SVGOptions{}), "#d1495b") {
		t.Fatal("C transfer color missing")
	}
}

func TestSVGEmpty(t *testing.T) {
	if s := (&Trace{}).SVG(SVGOptions{}); !strings.Contains(s, "empty trace") {
		t.Fatalf("empty rendering: %s", s)
	}
}

func TestSVGEscapes(t *testing.T) {
	tr := &Trace{}
	tr.Add("M", Comm, 0, 1, `a<b>&"c`)
	s := tr.SVG(SVGOptions{})
	if strings.Contains(s, "a<b>") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(s, "a&lt;b&gt;&amp;&quot;c") {
		t.Fatalf("escape output wrong:\n%s", s)
	}
}

func TestSVGDefaultsApplied(t *testing.T) {
	o := (SVGOptions{}).withDefaults()
	if o.Width != 900 || o.LaneHeight != 26 || o.FontSize != 11 {
		t.Fatalf("defaults %+v", o)
	}
}
