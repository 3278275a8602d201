package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.001 { // sample std of the classic example
		t.Fatalf("std %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("extrema %v %v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Fatalf("%+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Fatalf("median %v", m)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Summarize(nil)
}

func TestMaxGap(t *testing.T) {
	if g := MaxGap([]float64{10, 10.6, 10.3}); math.Abs(g-0.06) > 1e-12 {
		t.Fatalf("gap %v, want 0.06", g)
	}
	if !math.IsInf(MaxGap([]float64{0, 1}), 1) {
		t.Fatal("zero minimum should give +Inf")
	}
}

func TestString(t *testing.T) {
	if str := Summarize([]float64{1, 2}).String(); !strings.Contains(str, "n=2") {
		t.Fatalf("%q", str)
	}
}

// Properties: min ≤ median ≤ max, mean within [min, max], std ≥ 0, and
// summaries are permutation invariant.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if !(s.Min <= s.Median && s.Median <= s.Max) {
			return false
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Std < 0 {
			return false
		}
		// permutation invariance: reverse
		rev := make([]float64, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		r := Summarize(rev)
		return math.Abs(r.Mean-s.Mean) < 1e-9 && r.Min == s.Min && r.Max == s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
