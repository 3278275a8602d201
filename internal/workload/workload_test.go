package workload

import (
	"testing"

	"repro/internal/platform"
)

func TestPaperShapes(t *testing.T) {
	shapes := PaperShapes()
	if len(shapes) != 3 {
		t.Fatalf("%d shapes", len(shapes))
	}
	// first shape at q=80: r=t=100, s=800 (§8.3 "we have r = t = 100 and
	// s = 800")
	pr, err := shapes[0].Problem(80)
	if err != nil {
		t.Fatal(err)
	}
	if pr.R != 100 || pr.T != 100 || pr.S != 800 {
		t.Fatalf("shape 1: %+v", pr)
	}
	// all shapes must divide evenly by both paper block sizes
	for _, s := range shapes {
		for _, q := range []int{40, 80} {
			if _, err := s.Problem(q); err != nil {
				t.Fatalf("%s at q=%d: %v", s.Name, q, err)
			}
		}
	}
}

func TestMemorySweep(t *testing.T) {
	ms := MemorySweep()
	if ms[0] != 132 || ms[len(ms)-1] != 512 {
		t.Fatalf("sweep %v must span 132..512 MB", ms)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i] <= ms[i-1] {
			t.Fatal("sweep not increasing")
		}
	}
}

func TestUTK(t *testing.T) {
	pl := UTK(80, 512, 8)
	if pl.P() != 8 || !pl.IsHomogeneous() {
		t.Fatalf("platform %v", pl)
	}
	if mu := platform.MuOverlap(pl.Workers[0].M); mu != 100 {
		t.Fatalf("µ = %d, want 100 at 512 MiB", mu)
	}
}

func TestHeterogeneitySweep(t *testing.T) {
	levels := HeterogeneitySweep()
	if levels[0].Name != "homogeneous" || levels[0].HC != 1 {
		t.Fatalf("first level %+v", levels[0])
	}
	pl := levels[0].Platform(1, 4, 2, 3, 100)
	for _, w := range pl.Workers {
		if w.C != 2 || w.W != 3 || w.M != 100 {
			t.Fatalf("homogeneous level produced %+v", w)
		}
	}
	// deterministic: same seed, same platform
	a := levels[5].Platform(7, 4, 2, 3, 100)
	b := levels[5].Platform(7, 4, 2, 3, 100)
	for i := range a.Workers {
		if a.Workers[i] != b.Workers[i] {
			t.Fatal("platform generation not deterministic")
		}
	}
}
