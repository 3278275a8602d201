//go:build linux

package main

import (
	"fmt"
	"io"
	"math"
)

// printSpread compares two back-to-back sets of runs of the same code,
// cell by cell: both values, how much worse the second is than the
// first as a share of the first, and the bound. It reports whether
// every gated cell repeated within its bound with no failed job; this
// is the check the benchmark must pass against itself before it may
// judge a change.
func printSpread(w io.Writer, first, second report) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-22s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for i, a := range first.Workloads {
		b := second.Workloads[i]
		for _, r := range []workloadReport{a, b} {
			if r.Void != "" || r.Failed > 0 {
				fmt.Fprintf(w, "%-18s void or failed jobs: %s\n", r.Name, r.Void)
				ok = false
			}
		}
		if a.e2e == nil || b.e2e == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a.e2e.getOrNaN(d.Name), b.e2e.getOrNaN(d.Name)
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			// An absent cell is NaN and fails this comparison too.
			if !(math.Abs(worse) <= d.Bound) {
				mark = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-22s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n",
				a.Name, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
	}
	return ok
}
