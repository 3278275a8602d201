//go:build linux

package main

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/platform"
)

// fleetSize is the number of mwworker processes per workload: one per
// core of the two-core host the bounds were sized on, each with
// -cores 1 so a worker is one processor of the paper's star.
const fleetSize = 2

// warmupJobs run after boot and before the clock starts, so connection
// set-up, pools and first-touch page faults land in setup_s.
const warmupJobs = 3

// workload is one row of the benchmark: a server configuration, a
// worker configuration and a job shape, chosen so that one group of
// layers does most of the work and the others almost none.
type workload struct {
	Name string
	Why  string

	Durable bool // journal to a temp dir and Freivalds-verify every tile
	MemMB   int  // mwworker -mem
	N, Q    int  // job: n×n matrices in q×q blocks (mwworker -q is the same q)
	Mu      int  // job: chunk side in blocks

	Clients int // closed-loop clients, each waiting for its reply before the next submit
	// Jobs is the full sizing, summed over clients; WindowS is how long
	// that many jobs took on the build host. -seconds scales Jobs by
	// seconds/WindowS, so the job count is a fixed function of the flags
	// and identical on both sides of a comparison: the master keeps
	// every finished job, and its heap must grow the same way on both.
	Jobs    int
	WindowS float64
	// MinJobs is the least -seconds may scale Jobs down to (0 = 4).
	MinJobs int
}

var workloads = []workload{
	{
		Name:  "dense_large",
		Why:   "largest job the submit limit admits, most flops per byte: blas and bulk netmw transfer do the work, scheduler, journal and verifier almost none",
		MemMB: 512, N: 2048, Q: 256, Mu: 4,
		// From about its tenth job on, a fresh mmserve serves these jobs
		// 1.5–3× slower on the build host (resident set past ~1.5 GiB; not
		// GC, whose cycles stay under 70 ms). A ten-job window straddles
		// that step and measures mostly where it fell.
		Clients: 1, Jobs: 24, WindowS: 35, MinJobs: 16,
	},
	{
		Name:  "tight_memory",
		Why:   "the paper's limited-memory regime (m=16 blocks, mu=1): no operand residency, 64 one-block tasks, ~280 MB of cold transfer per job; netmw codec, engine per-message and cluster per-task costs dominate",
		MemMB: 2, N: 1024, Q: 128, Mu: 1,
		Clients: 1, Jobs: 110, WindowS: 37,
	},
	{
		Name:  "small_jobs",
		Why:   "control plane: connect, submit decode, job set-up, dispatch, flush, result encode per ~20 ms job, two jobs in flight; kernel time is negligible, the cluster lock and per-job fixed cost do the work",
		MemMB: 64, N: 256, Q: 64, Mu: 2,
		Clients: 2, Jobs: 1200, WindowS: 16,
	},
	{
		Name:    "durable_verified",
		Why:     "writes beside reads: WAL append+fsync of accept, chunk and done records and Freivalds before every commit, on the same cluster commit path the other three run bare",
		Durable: true,
		MemMB:   256, N: 512, Q: 128, Mu: 2,
		Clients: 1, Jobs: 200, WindowS: 20,
	},
}

// smokeWorkload is the tiny in-process configuration behind -smoke and
// the package test; it is not part of BENCHMARK.json.
var smokeWorkload = workload{
	Name: "smoke", Why: "in-process self-test of the traced pass and the replays",
	Durable: true, MemMB: 1, N: 128, Q: 32, Mu: 2,
	Clients: 1, Jobs: 12, WindowS: 1,
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobsFor returns the timed job count for a run asked to measure for
// the given number of seconds (0 = the full sizing), a multiple of the
// client count.
func (w workload) jobsFor(seconds int) int {
	jobs := w.Jobs
	if seconds > 0 {
		jobs = int(math.Round(float64(w.Jobs) * float64(seconds) / w.WindowS))
	}
	if jobs < max(w.MinJobs, 4) {
		jobs = max(w.MinJobs, 4)
	}
	if r := jobs % w.Clients; r != 0 {
		jobs += w.Clients - r
	}
	return jobs
}

// prefaultMiB is about what the stack will come to hold while it runs
// jobs timed jobs: mmserve keeps every finished job, and was measured
// to grow by twice the job's three matrices per job; half a GiB covers
// the workers and the bench. That much fresh memory is touched before
// the first boot (see README, "First-touch drift").
func (w workload) prefaultMiB(jobs int) int {
	perJob := 2 * 3 * w.N * w.N * 8
	return (jobs+warmupJobs)*perJob>>20 + 512
}

func (w workload) blocksPerSide() int { return w.N / w.Q }

// updatesPerJob is (n/q)³, the block updates one job costs.
func (w workload) updatesPerJob() int64 {
	b := int64(w.blocksPerSide())
	return b * b * b
}

func (w workload) flopsPerJob() float64 { return 2 * math.Pow(float64(w.N), 3) }

// memBlocks is the m a worker advertises: -mem converted exactly as
// cmd/mwworker converts it.
func (w workload) memBlocks() int {
	return platform.MemoryBlocks(int64(w.MemMB)<<20, w.Q)
}

// inputs is one workload's (A, B, C₀) triple and the reference result.
// The servers see only these matrices, never the seed.
type inputs struct {
	a, b, c0, ref *matrix.Blocked
}

// makeInputs fills A, B and C₀ from seed, seed+1 and seed+2 and
// computes the reference C once, outside every timed region.
func makeInputs(w workload, seed int64) inputs {
	n := w.N
	ad, bd, cd := matrix.NewDense(n, n), matrix.NewDense(n, n), matrix.NewDense(n, n)
	matrix.DeterministicFill(ad, seed)
	matrix.DeterministicFill(bd, seed+1)
	matrix.DeterministicFill(cd, seed+2)
	ref := cd.Clone()
	if n <= 1024 {
		matrix.MulNaive(ref, ad, bd)
	} else {
		// The textbook loop takes tens of seconds at n=2048; the blocked
		// kernel accumulates every element in the same ascending-k FMA
		// chain and is pinned bit-identical to it by the blas tests.
		blas.GemmBlocked(n, n, n, ad.Data, n, bd.Data, n, ref.Data, n)
	}
	return inputs{
		a: matrix.Partition(ad, w.Q), b: matrix.Partition(bd, w.Q),
		c0: matrix.Partition(cd, w.Q), ref: matrix.Partition(ref, w.Q),
	}
}

// resetC overwrites c with C₀, reusing c's buffers.
func (in inputs) resetC(c *matrix.Blocked) {
	for i := 0; i < c.BR; i++ {
		for j := 0; j < c.BC; j++ {
			copy(c.Block(i, j).Data, in.c0.Block(i, j).Data)
		}
	}
}

// check compares a returned C with the reference bit for bit.
func (in inputs) check(c *matrix.Blocked) error {
	for i := 0; i < c.BR; i++ {
		for j := 0; j < c.BC; j++ {
			if !blas.EqualBits(c.Block(i, j).Data, in.ref.Block(i, j).Data) {
				return fmt.Errorf("result block (%d,%d) differs from the reference", i, j)
			}
		}
	}
	return nil
}
