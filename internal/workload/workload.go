// Package workload generates the problem instances and platform suites
// used by the experiments: the paper's matrix shapes (§8.3), its §8.1
// platform and Figure 13 memory sweep, and the heterogeneity sweeps.
package workload

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/platform"
)

// Shape names one matrix-product geometry.
type Shape struct {
	Name        string
	NA, NAB, NB int
}

// PaperShapes returns the three shapes of §8.3 / Figure 10:
// 8000×8000 by 8000×64000, 16000×16000 by 16000×128000, and
// 8000×64000 by 64000×64000.
func PaperShapes() []Shape {
	return []Shape{
		{"8k x 8k x 64k", 8000, 8000, 64000},
		{"16k x 16k x 128k", 16000, 16000, 128000},
		{"8k x 64k x 64k", 8000, 64000, 64000},
	}
}

// Problem converts a shape into a block problem for block size q.
func (s Shape) Problem(q int) (core.Problem, error) {
	return core.NewProblem(s.NA, s.NAB, s.NB, q)
}

// MemorySweep returns the Figure 13 memory budgets in MiB.
func MemorySweep() []int { return []int{132, 192, 256, 384, 512} }

// UTK builds the §8.1 platform at block size q with memMB MiB of worker
// memory and the given worker count.
func UTK(q, memMB, workers int) *platform.Platform {
	c, w := platform.UTKCalibration().BlockCosts(q)
	return platform.Homogeneous(workers, c, w, platform.MemoryBlocks(int64(memMB)<<20, q))
}

// Table2 builds the worked example of §6.2 (Table 2): P1(c=2, w=2),
// P2(3, 3) and P3(5, 1), with the memories that give µ = 6, 18 and 10
// under the overlapped layout (µ² + 4µ blocks).
func Table2() *platform.Platform {
	m := func(mu int) int { return core.ChunkFootprint(mu, mu, 2) }
	return platform.New(
		platform.Worker{C: 2, W: 2, M: m(6)},
		platform.Worker{C: 3, W: 3, M: m(18)},
		platform.Worker{C: 5, W: 1, M: m(10)},
	)
}

// HeterogeneityLevel describes one point of the heterogeneity sweep the
// paper announces for its final version: independent spreads for link
// bandwidth, compute speed and memory.
type HeterogeneityLevel struct {
	Name       string
	HC, HW, HM float64
}

// HeterogeneitySweep returns the sweep grid used by the hetsweep
// experiment.
func HeterogeneitySweep() []HeterogeneityLevel {
	return []HeterogeneityLevel{
		{"homogeneous", 1, 1, 1},
		{"links x2", 2, 1, 1},
		{"speeds x2", 1, 2, 1},
		{"memory x4", 1, 1, 4},
		{"all x2", 2, 2, 2},
		{"all x4", 4, 4, 4},
	}
}

// Platform draws a deterministic random platform for the level.
func (h HeterogeneityLevel) Platform(seed int64, workers int, meanC, meanW float64, meanM int) *platform.Platform {
	rng := rand.New(rand.NewSource(seed))
	return platform.RandomHeterogeneous(rng, workers, meanC, meanW, meanM, h.HC, h.HW, h.HM)
}
