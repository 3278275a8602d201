// Package matmul is the public API of the master-worker matrix-product
// library, a reproduction of Dongarra, Pineau, Robert, Shi and Vivien,
// "Revisiting Matrix Product on Master-Worker Platforms" (IPDPS 2007).
//
// The library schedules the kernel C ← C + A·B (and block LU
// factorization) on a star platform: a master holding all data and p
// workers with heterogeneous link costs c_i, compute costs w_i and memory
// capacities m_i (in q×q blocks), under the one-port communication model.
//
// Four layers are exposed:
//
//   - Analysis: memory layouts (Mu*), communication lower bounds
//     (Bounds), the bandwidth-centric steady state (SteadyState).
//   - Scheduling/simulation: the seven comparison algorithms of the
//     paper's experiments (Simulate), the heterogeneous incremental
//     algorithms (SimulateHeterogeneous) and their demand-driven baseline
//     (SimulateHeterogeneousDemand), and parallel LU (SimulateLU), all
//     run by one discrete-event simulator of the one-port model.
//   - Execution: real products with real data movement, plus the real
//     block LU factorization (FactorLU). MultiplyLocal runs one product
//     on a one-job cluster of in-process workers; over TCP, a product is
//     a job submitted to a served cluster (ServeClusterTCP,
//     WorkClusterTCP, SubmitMatMulTCP).
//   - Service: the long-running fault-tolerant multi-job scheduler
//     (NewCluster, SubmitJob, JobStatus) with heartbeat failure
//     detection, served in-process or over TCP (ServeClusterTCP).
//
// See DESIGN.md for the paper-to-module map, including the cluster
// layer, and for how the reproduced tables and figures are regenerated.
package matmul

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/blas"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/hetero"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/ooc"
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

// MuSingle, MuOverlap and MuNoOverlap are the paper's memory layouts:
// 1+µ+µ² ≤ m (§4.1 maximum re-use), µ²+4µ ≤ m (§5 overlapped) and
// µ²+2µ ≤ m (DDOML).
func MuSingle(m int) int { return platform.MuSingle(m) }

// MuOverlap returns the µ of the overlapped layout (µ² + 4µ ≤ m).
func MuOverlap(m int) int { return platform.MuOverlap(m) }

// MuNoOverlap returns the µ of the non-overlapped layout (µ² + 2µ ≤ m).
func MuNoOverlap(m int) int { return platform.MuNoOverlap(m) }

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

// KernelName identifies the GEMM micro-kernel the host runs, picked
// once at start-up from CPUID: "avx512-8x16" when the AVX-512 assembly
// kernel passed its runtime gate, else "avx2fma-4x8" for the AVX2+FMA
// one, else "go-fma-4x8", the portable fused-multiply-add fallback. All
// three produce bit-identical results; the name is for benchmark
// records and operational visibility.
func KernelName() string { return blas.KernelName() }

// MulParallel computes C ← C + A·B with the multi-core packed kernel:
// the register-blocked packed GEMM with its A panels sharded across
// cores goroutines (0 = one per available core). Results are
// bit-identical to the single-threaded kernel at every core count.
func MulParallel(c, a, b *Dense, cores int) error {
	if a.Rows != c.Rows || b.Cols != c.Cols || a.Cols != b.Rows {
		return fmt.Errorf("matmul: shape mismatch C %dx%d, A %dx%d, B %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	blas.ParallelGemm(c.Rows, c.Cols, a.Cols, a.Data, a.Cols, b.Data, b.Cols, c.Data, c.Cols, cores)
	return nil
}

// OutOfCoreConfig configures MultiplyOutOfCore.
type OutOfCoreConfig struct {
	Dir    string // directory for the backing files (required)
	CacheC int    // C-store cache in blocks (determines µ via 1+µ+µ² ≤ m)
	CacheA int    // A-store cache in blocks (≥ 1; 2 suffices)
	CacheB int    // B-store cache in blocks (≥ µ recommended)
}

// MultiplyOutOfCore computes C ← C + A·B with all three operands staged
// on disk and only the configured number of blocks in memory, using the
// §4.1 maximum re-use loop: the out-of-core face of the paper's
// memory-bounded analysis (§9 relates the two). It returns the updated C.
func MultiplyOutOfCore(c, a, b *Blocked, cfg OutOfCoreConfig) (*Blocked, error) {
	sa, err := ooc.FromBlocked(cfg.Dir+"/ooc-a.bin", a, maxInt(cfg.CacheA, 2))
	if err != nil {
		return nil, err
	}
	defer sa.Close()
	sb, err := ooc.FromBlocked(cfg.Dir+"/ooc-b.bin", b, maxInt(cfg.CacheB, 2))
	if err != nil {
		return nil, err
	}
	defer sb.Close()
	sc, err := ooc.FromBlocked(cfg.Dir+"/ooc-c.bin", c, maxInt(cfg.CacheC, 3))
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	if _, err := ooc.MultiplyMaxReuse(sc, sa, sb); err != nil {
		return nil, err
	}
	return sc.ToBlocked()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SimulateHeterogeneousDemand runs the dynamic demand-driven scheduler on
// a heterogeneous platform through the discrete-event simulator: idle
// workers grab the next µ_i-column panel and walk it in µ_i-row chunks,
// and every request is served first come, first served. It is the dynamic
// baseline against which the §6.2 static algorithms are compared in the
// hetsweep experiment.
func SimulateHeterogeneousDemand(pl *Platform, pr Problem, tr *Trace) (Result, error) {
	return hetero.RunDemand(pl, pr, tr)
}

// Cannon computes C ← C + A·B on a g×g goroutine grid with Cannon's
// algorithm — the pre-distributed 2D-grid baseline of the paper's
// introduction. All operands must be n×n with n divisible by g.
func Cannon(c, a, b *Dense, g int) error { return grid.Cannon(c, a, b, g) }

// OuterProduct computes C ← C + A·B with the ScaLAPACK outer-product
// algorithm on a g×g goroutine grid.
func OuterProduct(c, a, b *Dense, g int) error { return grid.OuterProduct(c, a, b, g) }
