// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (see DESIGN.md §4) plus the ablation benches of
// DESIGN.md §5. Makespans, ratios and enrollments are attached as custom
// metrics so `go test -bench=.` regenerates the evaluation's numbers.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/blas"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fleet"
	"repro/internal/greedy"
	"repro/internal/grid"
	"repro/internal/hetero"
	"repro/internal/homog"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/ooc"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/workload"
)

// --- Proposition 1 -------------------------------------------------------

func BenchmarkProp1AlternatingGreedy(b *testing.B) {
	in := greedy.Instance{R: 4, S: 4, P: 1, C: 2, W: 3}
	var ms float64
	for i := 0; i < b.N; i++ {
		ev, err := greedy.Evaluate(in, greedy.AlternatingGreedy(in))
		if err != nil {
			b.Fatal(err)
		}
		ms = ev.Makespan
	}
	b.ReportMetric(ms, "makespan")
}

// --- Figure 4 ------------------------------------------------------------

func BenchmarkFig4(b *testing.B) {
	cases := map[string]greedy.Instance{
		"a": {R: 3, S: 3, P: 2, C: 4, W: 7},
		"b": {R: 6, S: 3, P: 2, C: 8, W: 9},
	}
	for name, in := range cases {
		b.Run("thrifty/"+name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				ev, err := greedy.Evaluate(in, greedy.Thrifty(in))
				if err != nil {
					b.Fatal(err)
				}
				ms = ev.Makespan
			}
			b.ReportMetric(ms, "makespan")
		})
		b.Run("minmin/"+name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				ev, err := greedy.Evaluate(in, greedy.MinMin(in))
				if err != nil {
					b.Fatal(err)
				}
				ms = ev.Makespan
			}
			b.ReportMetric(ms, "makespan")
		})
	}
}

// --- §4 maximum re-use ----------------------------------------------------

func BenchmarkMaxReuseCount(b *testing.B) {
	pr := core.Problem{R: 96, S: 96, T: 64, Q: 80}
	var ccr float64
	for i := 0; i < b.N; i++ {
		st, err := bounds.CountMaxReuse(pr, 10000)
		if err != nil {
			b.Fatal(err)
		}
		ccr = st.CCR()
	}
	b.ReportMetric(ccr, "ccr")
	b.ReportMetric(bounds.LowerBoundLoomisWhitney(10000), "ccr-lower-bound")
}

// --- Table 1 / Table 2 ----------------------------------------------------

func BenchmarkTab1SteadyState(b *testing.B) {
	mem := func(mu int) int { return mu*mu + 4*mu }
	pl := platform.New(
		platform.Worker{C: 1, W: 2, M: mem(2)},
		platform.Worker{C: 20, W: 40, M: mem(2)},
	)
	var rho float64
	for i := 0; i < b.N; i++ {
		sol, err := steady.Solve(pl)
		if err != nil {
			b.Fatal(err)
		}
		rho = sol.Throughput
	}
	b.ReportMetric(rho, "rho")
}

func BenchmarkTab2(b *testing.B) {
	pl := workload.Table2()
	for _, rule := range []hetero.Rule{hetero.Global, hetero.Local, hetero.TwoStep} {
		b.Run(rule.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				st := hetero.NewState(pl)
				for k := 0; k < 2000; k++ {
					st.Step(pl, rule)
				}
				ratio = st.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// --- Figure 10 -------------------------------------------------------------

func BenchmarkFig10(b *testing.B) {
	pl := workload.UTK(80, 512, 8)
	shapes := map[string]core.Problem{
		"8kx8kx64k":    core.MustProblem(8000, 8000, 64000, 80),
		"16kx16kx128k": core.MustProblem(16000, 16000, 128000, 80),
		"8kx64kx64k":   core.MustProblem(8000, 64000, 64000, 80),
	}
	for sname, pr := range shapes {
		for _, alg := range algorithms.All() {
			b.Run(fmt.Sprintf("%s/%s", sname, alg), func(b *testing.B) {
				var r core.Result
				for i := 0; i < b.N; i++ {
					var err error
					r, err = algorithms.Run(alg, pl, pr, algorithms.Options{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.Makespan, "makespan-s")
				b.ReportMetric(float64(r.Enrolled), "enrolled")
			})
		}
	}
}

// --- Figure 11 --------------------------------------------------------------

func BenchmarkFig11RealRuntime(b *testing.B) {
	q := 32
	ad := matrix.NewDense(8*q, 8*q)
	bd := matrix.NewDense(8*q, 16*q)
	matrix.DeterministicFill(ad, 1)
	matrix.DeterministicFill(bd, 2)
	a := matrix.Partition(ad, q)
	bb := matrix.Partition(bd, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := matrix.NewBlocked(8, 16, q)
		spec := cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: bb, Mu: 2}
		if _, _, err := cluster.RunOneJob(spec, 4, cluster.LocalWorkerConfig{ID: "fig11-"}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 12 ---------------------------------------------------------------

func BenchmarkFig12(b *testing.B) {
	for _, q := range []int{40, 80} {
		pl := workload.UTK(q, 512, 8)
		pr := core.MustProblem(8000, 8000, 64000, q)
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = algorithms.Run(algorithms.HoLM, pl, pr, algorithms.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan, "makespan-s")
		})
	}
}

// --- Figure 13 ----------------------------------------------------------------

func BenchmarkFig13(b *testing.B) {
	pr := core.MustProblem(16000, 16000, 64000, 80)
	for _, mem := range []int{132, 256, 512} {
		pl := workload.UTK(80, mem, 8)
		b.Run(fmt.Sprintf("mem%dMB", mem), func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = algorithms.Run(algorithms.HoLM, pl, pr, algorithms.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan, "makespan-s")
			b.ReportMetric(float64(r.Enrolled), "enrolled")
		})
	}
}

// --- §7 LU -----------------------------------------------------------------

func BenchmarkLUCostModel(b *testing.B) {
	var comm float64
	for i := 0; i < b.N; i++ {
		var err error
		comm, err = lu.TotalComm(480, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(comm, "comm-blocks")
}

func BenchmarkLUFactorReal(b *testing.B) {
	n := 256
	src := matrix.NewDense(n, n)
	lu.DiagonallyDominant(src, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := src.Clone()
		if err := lu.Factor(a, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * n * n))
}

func BenchmarkLUSimulated(b *testing.B) {
	pl := workload.UTK(80, 512, 8)
	var r lu.ParallelResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = lu.SimulateHomogeneous(pl, 490, 49, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Makespan, "makespan-s")
	b.ReportMetric(float64(r.Enrolled), "enrolled")
}

// --- heterogeneous sweep -------------------------------------------------------

func BenchmarkHetero(b *testing.B) {
	pl := workload.Table2()
	pr := core.Problem{R: 36, S: 36, T: 12, Q: 80}
	for _, rule := range []hetero.Rule{hetero.Global, hetero.Local, hetero.TwoStep} {
		b.Run(rule.String(), func(b *testing.B) {
			var res core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, _, err = hetero.Run(pl, pr, rule, hetero.ExecOptions{IncludeCIO: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "makespan")
		})
	}
}

// --- ablations (DESIGN.md §5) ----------------------------------------------

// BenchmarkAblationTwoPort compares the unidirectional one-port master
// against the bidirectional variant on the same HoLM schedule.
func BenchmarkAblationTwoPort(b *testing.B) {
	pl := workload.UTK(80, 512, 8)
	pr := core.MustProblem(8000, 8000, 64000, 80)
	sel, err := homog.Select(pl, pr)
	if err != nil {
		b.Fatal(err)
	}
	for _, twoPort := range []bool{false, true} {
		name := "one-port"
		if twoPort {
			name = "two-port"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				plan := homog.BuildPlan(pl, pr, sel.P, sel.Mu)
				cfg := make([]sim.WorkerConfig, pl.P())
				for j := range cfg {
					cfg[j] = sim.WorkerConfig{StageCap: 2}
				}
				r, err := sim.Run(sim.Input{
					Platform: pl, Configs: cfg, Queues: plan.Queues,
					Policy:  sim.NewSequencePolicy("holm", plan.Ops),
					TwoPort: twoPort,
				})
				if err != nil {
					b.Fatal(err)
				}
				ms = r.Makespan
			}
			b.ReportMetric(ms, "makespan-s")
		})
	}
}

// BenchmarkAblationLayout compares the three memory layouts (overlapped
// µ²+4µ, non-overlapped µ²+2µ, Toledo m/3) on the same memory budget.
func BenchmarkAblationLayout(b *testing.B) {
	pl := workload.UTK(80, 512, 8)
	pr := core.MustProblem(8000, 8000, 64000, 80)
	m := pl.Workers[0].M
	layouts := []struct {
		name string
		alg  algorithms.Name
		side int
	}{
		{"overlap-mu2p4mu", algorithms.ODDOML, platform.MuOverlap(m)},
		{"noverlap-mu2p2mu", algorithms.DDOML, platform.MuNoOverlap(m)},
		{"toledo-m3", algorithms.BMM, platform.NuToledo(m)},
	}
	for _, lo := range layouts {
		b.Run(lo.name, func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = algorithms.Run(lo.alg, pl, pr, algorithms.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan, "makespan-s")
			b.ReportMetric(float64(lo.side), "chunk-side")
			b.ReportMetric(r.CCR(), "ccr")
		})
	}
}

// BenchmarkAblationSelection is resource selection on vs off: HoLM versus
// the same static order over all workers (ORROML).
func BenchmarkAblationSelection(b *testing.B) {
	pl := workload.UTK(80, 512, 8)
	pr := core.MustProblem(8000, 8000, 64000, 80)
	for _, alg := range []algorithms.Name{algorithms.HoLM, algorithms.ORROML} {
		b.Run(string(alg), func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = algorithms.Run(alg, pl, pr, algorithms.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.Makespan, "makespan-s")
			b.ReportMetric(float64(r.Enrolled), "enrolled")
		})
	}
}

// BenchmarkAblationLookahead compares selection lookahead depth: local
// (0), global (history), two-step (pairs).
func BenchmarkAblationLookahead(b *testing.B) {
	pl := workload.Table2()
	for _, rule := range []hetero.Rule{hetero.Local, hetero.Global, hetero.TwoStep} {
		b.Run(rule.String(), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				st := hetero.NewState(pl)
				for k := 0; k < 2000; k++ {
					st.Step(pl, rule)
				}
				ratio = st.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkAblationChunk sweeps the LU chunk-shape decision across the
// µi/µ range (§7.3).
func BenchmarkAblationChunk(b *testing.B) {
	c, w := platform.UTKCalibration().BlockCosts(80)
	const mu = 20
	for _, mui := range []int{5, 10, 15, 20} {
		b.Run(fmt.Sprintf("mui%d", mui), func(b *testing.B) {
			var sq, col float64
			for i := 0; i < b.N; i++ {
				sq = lu.ShapeEfficiency(lu.SquareChunk, mui, mu, c, w)
				col = lu.ShapeEfficiency(lu.ColumnChunk, mui, mu, c, w)
			}
			b.ReportMetric(sq, "eff-square")
			b.ReportMetric(col, "eff-columns")
		})
	}
}

// --- kernels ------------------------------------------------------------------

// The kernel headline series, BenchmarkPackedKernel, lives in
// internal/blas: it needs one row per micro-kernel the host supports,
// and forcing a kernel is a test-only override inside that package.

// BenchmarkParallelKernel prices the multi-core packed kernel against
// the single-threaded GemmBlocked on the same inputs, per iteration, so
// the reported speedup is an apples-to-apples wall-clock ratio on this
// machine's GOMAXPROCS. The two results are asserted bit-identical —
// the panel sharding is exact, not approximate. (On ≥ 4 cores the 1024³
// case is expected to show ≥ 2× speedup; on a single-core machine the
// ratio degenerates to ~1×.)
func BenchmarkParallelKernel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			a := make([]float64, n*n)
			bb := make([]float64, n*n)
			for i := range a {
				a[i] = float64(i%9) - 4
				bb[i] = float64(i%7) - 3
			}
			c1 := make([]float64, n*n)
			c2 := make([]float64, n*n)
			var seqT, parT time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range c1 {
					c1[j], c2[j] = 0, 0
				}
				t0 := time.Now()
				blas.GemmBlocked(n, n, n, a, n, bb, n, c1, n)
				seqT += time.Since(t0)
				t0 = time.Now()
				blas.ParallelGemm(n, n, n, a, n, bb, n, c2, n, workers)
				parT += time.Since(t0)
			}
			b.StopTimer()
			for j := range c1 {
				if c1[j] != c2[j] {
					b.Fatalf("parallel kernel diverges at %d: %g != %g", j, c2[j], c1[j])
				}
			}
			flops := 2 * float64(n) * float64(n) * float64(n) * float64(b.N)
			b.ReportMetric(flops/seqT.Seconds()/1e9, "Gflops-seq")
			b.ReportMetric(flops/parT.Seconds()/1e9, "Gflops-par")
			b.ReportMetric(seqT.Seconds()/parT.Seconds(), "speedup")
			b.ReportMetric(float64(workers), "cores")
		})
	}
}

func BenchmarkBlockUpdateQ80(b *testing.B) {
	q := 80
	a := make([]float64, q*q)
	bb := make([]float64, q*q)
	c := make([]float64, q*q)
	for i := range a {
		a[i] = float64(i%7) - 3
		bb[i] = float64(i%5) - 2
	}
	b.SetBytes(int64(3 * 8 * q * q))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.BlockUpdate(c, a, bb, q)
	}
	flops := 2 * float64(q) * float64(q) * float64(q)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflops")
}

// --- experiment harness end-to-end ---------------------------------------------

func BenchmarkExperiments(b *testing.B) {
	// every experiment must run clean; fig11 is excluded here because it
	// intentionally sleeps through 5 timed runs.
	for _, e := range expt.All() {
		if e.ID == "fig11" {
			continue
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- 2D-grid baselines (§1) -------------------------------------------------

func BenchmarkGridCannonReal(b *testing.B) {
	n := 192
	a := matrix.NewDense(n, n)
	bb := matrix.NewDense(n, n)
	matrix.DeterministicFill(a, 1)
	matrix.DeterministicFill(bb, 2)
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := matrix.NewDense(n, n)
		if err := grid.Cannon(c, a, bb, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridOuterProductReal(b *testing.B) {
	n := 192
	a := matrix.NewDense(n, n)
	bb := matrix.NewDense(n, n)
	matrix.DeterministicFill(a, 1)
	matrix.DeterministicFill(bb, 2)
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := matrix.NewDense(n, n)
		if err := grid.OuterProduct(c, a, bb, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- out-of-core (§9 relation) ------------------------------------------------

func BenchmarkOutOfCoreMaxReuse(b *testing.B) {
	q := 8
	dir := b.TempDir()
	av := matrix.NewDense(8*q, 4*q)
	bv := matrix.NewDense(4*q, 8*q)
	matrix.DeterministicFill(av, 1)
	matrix.DeterministicFill(bv, 2)
	a := matrix.Partition(av, q)
	bb := matrix.Partition(bv, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := matrix.NewBlocked(8, 8, q)
		sa, err := ooc.FromBlocked(fmt.Sprintf("%s/a%d.bin", dir, i), a, 2)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := ooc.FromBlocked(fmt.Sprintf("%s/b%d.bin", dir, i), bb, 4)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := ooc.FromBlocked(fmt.Sprintf("%s/c%d.bin", dir, i), c, 21)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ooc.MultiplyMaxReuse(sc, sa, sb); err != nil {
			b.Fatal(err)
		}
		sa.Close()
		sb.Close()
		sc.Close()
	}
}

// --- lookahead depth (generalized §6.2.1) ----------------------------------------

func BenchmarkLookaheadDepth(b *testing.B) {
	pl := workload.Table2()
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				st := hetero.NewState(pl)
				for n := 0; n < 500; n++ {
					st.StepLookahead(pl, k)
				}
				ratio = st.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// --- cluster service (fault-tolerant multi-job layer) --------------------------

// BenchmarkClusterMatMul measures end-to-end multi-job throughput of the
// cluster scheduler on in-process workers: 4 concurrent products per
// iteration, scaled over the worker count.
func BenchmarkClusterMatMul(b *testing.B) {
	const n, q, mu, jobs = 128, 16, 2, 4
	ad := matrix.NewDense(n, n)
	bd := matrix.NewDense(n, n)
	matrix.DeterministicFill(ad, 1)
	matrix.DeterministicFill(bd, 2)
	a := matrix.Partition(ad, q)
	bb := matrix.Partition(bd, q)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.SetBytes(int64(jobs) * int64(8*n*n) * 3)
			for i := 0; i < b.N; i++ {
				cl := cluster.New(cluster.Config{})
				for w := 0; w < workers; w++ {
					go cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{
						ID: fmt.Sprintf("w%d", w), Mem: 64,
					})
				}
				ids := make([]cluster.JobID, 0, jobs)
				for j := 0; j < jobs; j++ {
					c := matrix.NewBlocked(n/q, n/q, q)
					id, err := cl.SubmitJob(cluster.JobSpec{
						Kind: cluster.MatMul, C: c, A: a, B: bb, Mu: mu,
					})
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
				for _, id := range ids {
					st, err := cl.Wait(id)
					if err != nil || st.State != cluster.Done {
						b.Fatalf("job %d: %v / %v", id, st.State, err)
					}
				}
				cl.Close()
			}
			b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkClusterRecoverySim prices failure recovery on the cluster
// scheduler itself, driven in virtual time by fleet.Run: four
// UTK-calibrated workers (q = 80, 512 MiB) each on its own link compute
// a 32×64×32-block product at µ = 8, and one worker leaves at half the
// clean makespan. It reports the makespan ratio of that run against
// the clean one and the chunk copies the leave requeued. The run is
// deterministic, so both are exact.
func BenchmarkClusterRecoverySim(b *testing.B) {
	c, w := platform.UTKCalibration().BlockCosts(80)
	wk := fleet.Worker{Speed: 1 / w, Bandwidth: 1 / c, Mem: platform.MemoryBlocks(512<<20, 80)}
	cfg := fleet.Config{Workers: []fleet.Worker{wk, wk, wk, wk}, R: 32, S: 64, T: 32, Mu: 8}
	var ratio float64
	var requeues int
	for i := 0; i < b.N; i++ {
		clean, err := fleet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lossy := cfg
		lossy.Events = []fleet.Event{{At: clean.Makespan / 2, Worker: 1, Kind: fleet.Leave}}
		failed, err := fleet.Run(lossy)
		if err != nil {
			b.Fatal(err)
		}
		ratio, requeues = failed.Makespan/clean.Makespan, failed.Requeues
	}
	b.ReportMetric(ratio, "recovery-overhead")
	b.ReportMetric(float64(requeues), "requeues")
}

// BenchmarkClusterFleetAdaptive is the churn-fleet scenario
// (fleet.Churn) as a pinned benchmark series: a 100-worker fleet in
// three speed classes with 10% churn, driving the cluster scheduler in
// virtual time (fleet.Run) with the online-adaptive rules and
// as the FIFO + fixed-µ baseline, each reported as its makespan over
// the LP lower bound (vs-lp). The run is deterministic, so these
// metrics are exact, not sampled.
func BenchmarkClusterFleetAdaptive(b *testing.B) {
	for _, mode := range []string{"adaptive", "baseline"} {
		b.Run(mode, func(b *testing.B) {
			cfg := fleet.Churn(100, 120, 64, mode == "adaptive")
			lb := cfg.LowerBound()
			var res fleet.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fleet.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Makespan, "makespan-s")
			b.ReportMetric(lb, "lp-bound-s")
			b.ReportMetric(res.Makespan/lb, "vs-lp")
			b.ReportMetric(float64(res.Speculations), "speculations")
			b.ReportMetric(float64(res.SpecWins), "spec-wins")
			b.ReportMetric(float64(res.Requeues), "requeues")
		})
	}
}
