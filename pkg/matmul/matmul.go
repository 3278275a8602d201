// Package matmul is the public API of the master-worker matrix-product
// library, a reproduction of Dongarra, Pineau, Robert, Shi and Vivien,
// "Revisiting Matrix Product on Master-Worker Platforms" (IPDPS 2007).
//
// The library schedules the kernel C ← C + A·B (and block LU
// factorization) on a star platform: a master holding all data and p
// workers with heterogeneous link costs c_i, compute costs w_i and memory
// capacities m_i (in q×q blocks), under the one-port communication model.
//
// Three layers are exposed; a godoc Example or an examples/ program
// calls each of their functions:
//
//   - Analysis and simulation: the overlapped memory layout (MuOverlap),
//     the §4 communication lower bounds (Bounds), the bandwidth-centric
//     steady state (SteadyStateThroughput), and the discrete-event
//     simulator of the one-port model running the seven comparison
//     algorithms of §8 (Simulate, SimulateAll), the heterogeneous
//     incremental algorithms of §6.2 (SimulateHeterogeneous) and
//     parallel LU (SimulateLU).
//   - Execution: real products with real data movement (MultiplyLocal,
//     one job on a cluster of in-process workers) and the real block LU
//     factorization (FactorLU).
//   - Service: the long-running fault-tolerant multi-job scheduler
//     (NewCluster, SubmitMatMul, RunClusterWorkerLocal) with heartbeat
//     failure detection and optional result verification
//     (ClusterVerifyPolicy), served over TCP (ServeClusterTCP,
//     WorkClusterTCP, SubmitMatMulTCP).
//
// See DESIGN.md for the paper-to-module map, including the cluster
// layer, and for how the reproduced tables and figures are regenerated.
package matmul

import (
	"time"

	"repro/internal/algorithms"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/steady"
	"repro/internal/trace"
)

// Re-exported core types. These aliases are the supported names; the
// internal packages are implementation detail.
type (
	// Problem is a block-partitioned product instance (r×t by t×s in
	// q×q blocks).
	Problem = core.Problem
	// Result is the uniform outcome of any schedule, simulation or run.
	Result = core.Result
	// Platform is a star master-worker platform.
	Platform = platform.Platform
	// Worker is one worker's (c, w, m) description.
	Worker = platform.Worker
	// Calibration converts hardware rates to per-block costs.
	Calibration = platform.Calibration
	// Trace is a Gantt-chart recording.
	Trace = trace.Trace
	// Algorithm names one of the seven compared algorithms.
	Algorithm = algorithms.Name
	// HeteroRule selects the heterogeneous incremental heuristic.
	HeteroRule = hetero.Rule
	// Dense is a dense row-major matrix.
	Dense = matrix.Dense
	// Blocked is a q×q-block-partitioned matrix.
	Blocked = matrix.Blocked
)

// The seven algorithms of the paper's experimental section (§8.2).
const (
	HoLM   = algorithms.HoLM
	ORROML = algorithms.ORROML
	OMMOML = algorithms.OMMOML
	ODDOML = algorithms.ODDOML
	DDOML  = algorithms.DDOML
	BMM    = algorithms.BMM
	OBMM   = algorithms.OBMM
)

// Heterogeneous selection rules (§6.2).
const (
	Global  = hetero.Global
	Local   = hetero.Local
	TwoStep = hetero.TwoStep
)

// NewProblem builds a Problem from element dimensions; all must be
// divisible by q.
func NewProblem(nA, nAB, nB, q int) (Problem, error) { return core.NewProblem(nA, nAB, nB, q) }

// HomogeneousPlatform builds p identical workers.
func HomogeneousPlatform(p int, c, w float64, m int) *Platform {
	return platform.Homogeneous(p, c, w, m)
}

// NewPlatform builds a fully heterogeneous platform.
func NewPlatform(workers ...Worker) *Platform { return platform.New(workers...) }

// UTKCalibration models the paper's experimental platform (§8.1):
// 3.2 GHz Xeons on switched 100 Mb/s Fast Ethernet.
func UTKCalibration() Calibration { return platform.UTKCalibration() }

// MemoryBlocks converts a byte budget into q×q block buffers.
func MemoryBlocks(bytes int64, q int) int { return platform.MemoryBlocks(bytes, q) }

// MuOverlap returns the µ of the paper's overlapped memory layout
// (µ² + 4µ ≤ m, §5).
func MuOverlap(m int) int { return platform.MuOverlap(m) }

// BoundSet collects the communication-to-computation bounds of §4 for a
// memory of m blocks.
type BoundSet struct {
	Mu            int     // maximum re-use layout parameter
	MaxReuseCCR   float64 // 2/µ, the algorithm's asymptotic CCR
	LoomisWhitney float64 // √(27/8m), the paper's new lower bound
	ToledoLemma   float64 // √(27/32m)
	IronyToledo   float64 // √(1/8m), previous best known
}

// Bounds returns the §4 bounds for m buffers.
func Bounds(m int) BoundSet {
	return BoundSet{
		Mu:            platform.MuSingle(m),
		MaxReuseCCR:   bounds.CCRMaxReuseAsymptotic(m),
		LoomisWhitney: bounds.LowerBoundLoomisWhitney(m),
		ToledoLemma:   bounds.LowerBoundToledoLemma(m),
		IronyToledo:   bounds.LowerBoundIronyToledoTiskin(m),
	}
}

// Simulate runs one of the seven §8 algorithms on a homogeneous platform
// through the discrete-event simulator. A non-nil tr records the Gantt
// chart.
func Simulate(alg Algorithm, pl *Platform, pr Problem, tr *Trace) (Result, error) {
	return algorithms.Run(alg, pl, pr, algorithms.Options{Trace: tr})
}

// SimulateAll runs all seven algorithms and returns results sorted by
// makespan.
func SimulateAll(pl *Platform, pr Problem) ([]Result, error) {
	return algorithms.RunAll(pl, pr)
}

// SimulateHeterogeneous runs the §6.2 incremental algorithm on a
// heterogeneous platform: the allocation phase, then its selection
// sequence replayed with C I/O through the discrete-event simulator. A
// non-nil tr records the Gantt chart.
func SimulateHeterogeneous(pl *Platform, pr Problem, rule HeteroRule, tr *Trace) (Result, error) {
	res, _, err := hetero.Run(pl, pr, rule, hetero.ExecOptions{IncludeCIO: true, Trace: tr})
	return res, err
}

// SteadyStateThroughput returns the bandwidth-centric steady-state
// throughput ρ (block updates per time unit) of §6.1, an upper bound on
// any schedule's rate, along with whether bounded buffers can realize it.
func SteadyStateThroughput(pl *Platform) (rho float64, feasible bool, err error) {
	sol, err := steady.Solve(pl)
	if err != nil {
		return 0, false, err
	}
	return sol.Throughput, steady.Feasible(pl, sol), nil
}

// LocalConfig configures MultiplyLocal.
type LocalConfig struct {
	Workers int
	Mu      int // chunk side; 0 derives it from Memory via MuOverlap
	// Memory is each worker's advertised capacity in blocks: it derives
	// µ when Mu is 0 and caps what the scheduler hands a worker (0 =
	// unconstrained).
	Memory int
	// Cores shards each worker's block updates across this many kernel
	// goroutines (0 or 1 = sequential). Results are bit-identical.
	Cores int
}

// MultiplyLocal computes C ← C + A·B with real data movement on a
// one-job cluster of in-process workers, the library's stand-in for an
// MPI deployment: the same scheduler, feeder and worker engine the TCP
// service runs, over in-process pipes. Result.Blocks counts the blocks
// that crossed the master's port with payload.
func MultiplyLocal(c, a, b *Blocked, cfg LocalConfig) (Result, error) {
	mu := cfg.Mu
	if mu == 0 {
		mu = platform.MuOverlap(cfg.Memory)
	}
	start := time.Now()
	st, workers, err := cluster.RunOneJob(
		cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: mu},
		cfg.Workers, cluster.LocalWorkerConfig{ID: "local-", Mem: cfg.Memory, Cores: cfg.Cores})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Algorithm: "local",
		Makespan:  time.Since(start).Seconds(),
		Blocks:    st.Comm.BlocksShipped + st.Comm.CDown + st.Comm.CUp,
		Updates:   Problem{R: c.BR, S: c.BC, T: a.BC, Q: c.Q}.Updates(),
	}
	for _, w := range workers {
		if w.Done > 0 {
			res.Enrolled++
		}
	}
	return res, nil
}

// FactorLU factors the n×n dense matrix in place (packed L\U, no
// pivoting; see internal/lu for the stability contract) with the §7
// right-looking block scheme and panel width panel.
func FactorLU(a *Dense, panel int) error { return lu.Factor(a, panel) }

// SimulateLU simulates the §7.2 homogeneous parallel LU factorization of
// an r×r-block matrix with pivot size µ: each step's pivot and panels on
// one worker, then its column groups list-scheduled on P = ⌈µw/3c⌉
// workers, through the discrete-event simulator.
func SimulateLU(pl *Platform, r, mu int, tr *Trace) (Result, error) {
	res, err := lu.SimulateHomogeneous(pl, r, mu, tr)
	if err != nil {
		return Result{}, err
	}
	return res.Result("LU"), nil
}

// Partition cuts a dense matrix into q×q blocks; NewDense and
// DeterministicFill build inputs.
func Partition(d *Dense, q int) *Blocked { return matrix.Partition(d, q) }

// NewDense allocates a zeroed dense matrix.
func NewDense(rows, cols int) *Dense { return matrix.NewDense(rows, cols) }

// DeterministicFill fills d reproducibly from a seed.
func DeterministicFill(d *Dense, seed int64) { matrix.DeterministicFill(d, seed) }

// MulReference computes C ← C + A·B with the naive oracle, for
// verification.
func MulReference(c, a, b *Dense) { matrix.MulNaive(c, a, b) }
