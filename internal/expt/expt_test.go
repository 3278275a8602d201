package expt

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsGolden pins every number the deterministic experiments
// print: the golden file is `mmexp`'s output for every id but fig11,
// which times real runs.
func TestExperimentsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range All() {
		if e.ID == "fig11" {
			continue
		}
		if got.Len() > 0 {
			got.WriteString("\n")
		}
		fmt.Fprintf(&got, "=== %s — %s ===\n", e.ID, e.Title)
		got.WriteString(runExpt(t, e.ID))
	}
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/experiments.golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

func runExpt(t *testing.T, id string) string {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestAllRegistered(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// the DESIGN.md §4 index must all be present
	for _, id := range []string{"prop1", "fig4", "ccr", "tab1", "tab2", "fig10", "fig11", "fig12", "fig13", "lu", "grid", "hetsweep"} {
		if !ids[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestProp1NeverSuboptimal(t *testing.T) {
	out := runExpt(t, "prop1")
	if strings.Contains(out, "SUBOPTIMAL") {
		t.Fatalf("Proposition 1 violated:\n%s", out)
	}
}

func TestFig4Winners(t *testing.T) {
	out := runExpt(t, "fig4")
	if !strings.Contains(out, "→ Min-min") || !strings.Contains(out, "→ Thrifty") {
		t.Fatalf("both winners must appear:\n%s", out)
	}
}

func TestCCRTable(t *testing.T) {
	out := runExpt(t, "ccr")
	if !strings.Contains(out, "10000") || !strings.Contains(out, "1.09") {
		t.Fatalf("ccr table incomplete:\n%s", out)
	}
}

func TestTab1ReportsInfeasible(t *testing.T) {
	out := runExpt(t, "tab1")
	if !strings.Contains(out, "feasible with bounded buffers: false") {
		t.Fatalf("tab1 must report infeasibility:\n%s", out)
	}
}

func TestTab2Ratios(t *testing.T) {
	out := runExpt(t, "tab2")
	for _, want := range []string{"1.1730", "1.2100", "1.3075", "1.3889"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tab2 missing ratio %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Figure 8") {
		t.Fatal("Gantt charts missing")
	}
}

func TestFig10Rows(t *testing.T) {
	out := runExpt(t, "fig10")
	for _, alg := range []string{"HoLM", "ORROML", "OMMOML", "ODDOML", "DDOML", "BMM", "OBMM"} {
		if !strings.Contains(out, alg) {
			t.Fatalf("fig10 missing %s:\n%s", alg, out)
		}
	}
}

func TestFig12AndFig13(t *testing.T) {
	if out := runExpt(t, "fig12"); !strings.Contains(out, "q=40") {
		t.Fatalf("fig12:\n%s", out)
	}
	out := runExpt(t, "fig13")
	if !strings.Contains(out, "132MB") || !strings.Contains(out, "2 → 4") {
		t.Fatalf("fig13 must show HoLM growing from 2 to 4 workers:\n%s", out)
	}
}

func TestLUTable(t *testing.T) {
	out := runExpt(t, "lu")
	if !strings.Contains(out, "square chunk") || !strings.Contains(out, "columns chunk") {
		t.Fatalf("lu chunk policy missing:\n%s", out)
	}
}

func TestGridExperiment(t *testing.T) {
	out := runExpt(t, "grid")
	if !strings.Contains(out, "Cannon") || !strings.Contains(out, "scatter/gather") {
		t.Fatalf("grid:\n%s", out)
	}
}

func TestHetSweep(t *testing.T) {
	out := runExpt(t, "hetsweep")
	if !strings.Contains(out, "homogeneous") || !strings.Contains(out, "demand") {
		t.Fatalf("hetsweep:\n%s", out)
	}
}

func TestFig11Runs(t *testing.T) {
	out := runExpt(t, "fig11")
	if !strings.Contains(out, "run 5") || !strings.Contains(out, "max gap") {
		t.Fatalf("fig11:\n%s", out)
	}
}

func TestIndent(t *testing.T) {
	if got := indent("a\nb\n", "> "); got != "> a\n> b\n" {
		t.Fatalf("%q", got)
	}
	if got := indent("tail", "> "); got != "> tail" {
		t.Fatalf("%q", got)
	}
}
