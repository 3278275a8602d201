// Package expt regenerates every table and figure of the paper's
// evaluation, one function per experiment id (see DESIGN.md §4). Each
// function writes a human-readable table to an io.Writer; cmd/mmexp is the
// CLI front end and the root bench_test.go exposes each experiment as a
// benchmark.
package expt

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algorithms"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/greedy"
	"repro/internal/grid"
	"repro/internal/hetero"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/steady"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Experiment is one runnable reproduction artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{"prop1", "Proposition 1: alternating greedy is optimal (1 worker)", Prop1},
		{"fig4", "Figure 4: Thrifty vs Min-min counterexamples", Fig4},
		{"ccr", "§4: maximum re-use CCR vs lower bounds", CCR},
		{"tab1", "Table 1: steady state infeasible under bounded buffers", Tab1},
		{"tab2", "Table 2 + Figures 7-8: incremental selection ratios", Tab2},
		{"fig10", "Figure 10: seven algorithms on three matrix shapes", Fig10},
		{"fig11", "Figure 11: run-to-run variation (real runtime)", Fig11},
		{"fig12", "Figure 12: impact of block size q", Fig12},
		{"fig13", "Figure 13: impact of worker memory size", Fig13},
		{"lu", "§7: LU cost model and resource selection", LU},
		{"grid", "§1 baselines: Cannon / outer-product vs centralized master-worker", Grid},
		{"hetsweep", "§8 (announced): heterogeneity degree sweep", HetSweep},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Prop1 sweeps small instances and reports the alternating greedy
// makespan against the exhaustive optimum (§3, Proposition 1).
func Prop1(w io.Writer) error {
	fmt.Fprintln(w, "Proposition 1 — single worker, t=1: alternating greedy vs brute force")
	fmt.Fprintln(w, "  r  s      c      w     greedy    optimal")
	for r := 1; r <= 4; r++ {
		for s := 1; s <= 4; s++ {
			in := greedy.Instance{R: r, S: s, P: 1, C: 2, W: 3}
			best, _ := greedy.BruteForceSingleWorker(in)
			ev, err := greedy.Evaluate(in, greedy.AlternatingGreedy(in))
			if err != nil {
				return err
			}
			mark := ""
			if ev.Makespan > best+1e-9 {
				mark = "  *** SUBOPTIMAL"
			}
			fmt.Fprintf(w, "%3d %2d %6.1f %6.1f %10.1f %10.1f%s\n", r, s, in.C, in.W, ev.Makespan, best, mark)
		}
	}
	return nil
}

// Fig4 reproduces both counterexamples of Figure 4.
func Fig4(w io.Writer) error {
	cases := []struct {
		name string
		in   greedy.Instance
	}{
		{"4(a)  p=2 c=4 w=7 r=s=3   (Min-min wins)", greedy.Instance{R: 3, S: 3, P: 2, C: 4, W: 7}},
		{"4(b)  p=2 c=8 w=9 r=6 s=3 (Thrifty wins)", greedy.Instance{R: 6, S: 3, P: 2, C: 8, W: 9}},
	}
	fmt.Fprintln(w, "Figure 4 — neither Thrifty nor Min-min is optimal")
	for _, tc := range cases {
		th, err := greedy.Evaluate(tc.in, greedy.Thrifty(tc.in))
		if err != nil {
			return err
		}
		mm, err := greedy.Evaluate(tc.in, greedy.MinMin(tc.in))
		if err != nil {
			return err
		}
		winner := "Thrifty"
		if mm.Makespan < th.Makespan {
			winner = "Min-min"
		}
		fmt.Fprintf(w, "  %s\n    Thrifty makespan %6.1f   Min-min makespan %6.1f   → %s\n",
			tc.name, th.Makespan, mm.Makespan, winner)
	}
	return nil
}

// CCR sweeps the memory size and prints the maximum re-use CCR against
// the three lower bounds of §4.2.
func CCR(w io.Writer) error {
	fmt.Fprintln(w, "§4 — communication-to-computation ratios (blocks per block update)")
	fmt.Fprintln(w, "      m    µ    CCR(maxreuse)  √(27/8m)   √(27/32m)  √(1/8m)   gap to LW")
	for _, m := range []int{21, 57, 100, 500, 1000, 5000, 10000, 50000} {
		mu := platform.MuSingle(m)
		alg := bounds.CCRMaxReuseAsymptotic(m)
		lw := bounds.LowerBoundLoomisWhitney(m)
		fmt.Fprintf(w, "%7d %4d %14.5f %10.5f %10.5f %9.5f %9.3fx\n",
			m, mu, alg, lw, bounds.LowerBoundToledoLemma(m), bounds.LowerBoundIronyToledoTiskin(m), alg/lw)
	}
	fmt.Fprintln(w, "  (asymptotic gap of the maximum re-use algorithm: √(32/27) ≈ 1.0887)")
	return nil
}

// Tab1 reproduces the Table 1 infeasibility example.
func Tab1(w io.Writer) error {
	mem := func(mu int) int { return mu*mu + 4*mu }
	pl := platform.New(
		platform.Worker{C: 1, W: 2, M: mem(2)},
		platform.Worker{C: 20, W: 40, M: mem(2)},
	)
	sol, err := steady.Solve(pl)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1 — bandwidth-centric solution that bounded buffers cannot realize")
	fmt.Fprintf(w, "  platform: P1(c=1,w=2,µ=2)  P2(c=20,w=40,µ=2)\n")
	fmt.Fprintf(w, "  steady-state throughput ρ = %.4f block updates/time unit, port load %.2f\n",
		sol.Throughput, sol.PortUsed)
	for _, sh := range sol.Shares {
		fmt.Fprintf(w, "  P%d: x=%.4f  buffer demand %.1f blocks vs 4µ=%d staging blocks\n",
			sh.Worker+1, sh.X, steady.BufferDemand(pl, sol, sh.Worker), 4*pl.Mus()[sh.Worker])
	}
	fmt.Fprintf(w, "  feasible with bounded buffers: %v (the paper's point: it is not)\n",
		steady.Feasible(pl, sol))
	return nil
}

// Tab2 reproduces the worked example of §6.2 (Table 2, Figures 7-8).
func Tab2(w io.Writer) error {
	pl := workload.Table2()
	fmt.Fprintln(w, "Table 2 — incremental resource selection on P1(2,2,µ6) P2(3,3,µ18) P3(5,1,µ10)")
	for _, rule := range []hetero.Rule{hetero.Global, hetero.Local, hetero.TwoStep} {
		st := hetero.NewState(pl)
		for i := 0; i < 20000; i++ {
			st.Step(pl, rule)
		}
		names := []string{"P1", "P2", "P3"}
		var first []string
		for _, s := range st.Selections[:14] {
			first = append(first, names[s])
		}
		fmt.Fprintf(w, "  %-8s asymptotic ratio %.4f   first selections %v\n", rule, st.Ratio(), first)
	}
	for _, k := range []int{3, 4} {
		st := hetero.NewState(pl)
		for i := 0; i < 3000; i++ {
			st.StepLookahead(pl, k)
		}
		fmt.Fprintf(w, "  %d-step  asymptotic ratio %.4f   (generalized lookahead)\n", k, st.Ratio())
	}
	sol, err := steady.Solve(pl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  steady-state upper bound (no memory limit): %.4f\n", sol.Throughput)
	fmt.Fprintln(w, "  paper reports: global 1.17, local 1.21, two-step 1.30, steady state 1.39")

	// Figures 7-8: execution Gantt charts of the first selections.
	pr := core.Problem{R: 18, S: 18, T: 3, Q: 80}
	for _, rule := range []hetero.Rule{hetero.Global, hetero.Local} {
		tr := &trace.Trace{}
		if _, _, err := hetero.Run(pl, pr, rule, hetero.ExecOptions{IncludeCIO: false, Trace: tr}); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n  Figure %s — %s selection execution (r=s=18, t=3):\n", map[hetero.Rule]string{hetero.Global: "7", hetero.Local: "8"}[rule], rule)
		fmt.Fprint(w, indent(tr.ASCII(100), "  "))
	}
	return nil
}

func indent(s, pre string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += pre + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += pre + s[start:]
	}
	return out
}

// Fig10 runs the seven algorithms on the paper's three shapes.
func Fig10(w io.Writer) error {
	pl := workload.UTK(80, 512, 8)
	fmt.Fprintln(w, "Figure 10 — simulated makespan (s) of the seven algorithms, 8 workers, 512 MB, q=80")
	fmt.Fprintf(w, "  %-8s", "algo")
	for _, sh := range workload.PaperShapes() {
		fmt.Fprintf(w, " %17s", sh.Name)
	}
	fmt.Fprintf(w, "  enrolled\n")
	for _, name := range algorithms.All() {
		fmt.Fprintf(w, "  %-8s", name)
		var enrolled int
		for _, sh := range workload.PaperShapes() {
			pr, err := sh.Problem(80)
			if err != nil {
				return err
			}
			r, err := algorithms.Run(name, pl, pr, algorithms.Options{})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %17.1f", r.Makespan)
			enrolled = r.Enrolled
		}
		fmt.Fprintf(w, " %9d\n", enrolled)
	}
	return nil
}

// Fig11 measures run-to-run variation of the real runtime — a one-job
// cluster of in-process workers — the analogue of the paper's repeated
// MPI runs (max gap ≈ 6 %).
func Fig11(w io.Writer) error {
	const runs = 5
	q := 64
	const r, tt, sCols = 10, 10, 16
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, sCols*q)
	matrix.DeterministicFill(ad, 1)
	matrix.DeterministicFill(bd, 2)
	a := matrix.Partition(ad, q)
	b := matrix.Partition(bd, q)

	fmt.Fprintln(w, "Figure 11 — variation over 5 identical runs (in-process one-job cluster, demand-driven)")
	var times []float64
	for i := 0; i < runs; i++ {
		cd := matrix.NewDense(r*q, sCols*q)
		matrix.DeterministicFill(cd, 3)
		c := matrix.Partition(cd, q)
		start := time.Now()
		_, _, err := cluster.RunOneJob(cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: 3},
			4, cluster.LocalWorkerConfig{ID: "fig11-"})
		if err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		times = append(times, el)
		fmt.Fprintf(w, "  run %d: %8.4fs\n", i+1, el)
	}
	sum := stats.Summarize(times)
	fmt.Fprintf(w, "  %s\n", sum)
	fmt.Fprintf(w, "  max gap: %.1f%% (paper reports ≈6%% on its MPI platform)\n", 100*stats.MaxGap(times))
	return nil
}

// Fig12 compares q = 40 and q = 80 on the 8000×8000 × 8000×64000 product.
func Fig12(w io.Writer) error {
	fmt.Fprintln(w, "Figure 12 — impact of the block size q (8000x8000 by 8000x64000, 512 MB)")
	fmt.Fprintf(w, "  %-8s %12s %12s %10s\n", "algo", "q=40 (s)", "q=80 (s)", "ratio")
	for _, name := range algorithms.All() {
		var ms [2]float64
		for i, q := range []int{40, 80} {
			pl := workload.UTK(q, 512, 8)
			pr := core.MustProblem(8000, 8000, 64000, q)
			r, err := algorithms.Run(name, pl, pr, algorithms.Options{})
			if err != nil {
				return err
			}
			ms[i] = r.Makespan
		}
		fmt.Fprintf(w, "  %-8s %12.1f %12.1f %10.3f\n", name, ms[0], ms[1], ms[0]/ms[1])
	}
	fmt.Fprintln(w, "  (the paper: q has little impact on the OML algorithms; BMM/OBMM are q-independent)")
	return nil
}

// Fig13 sweeps the worker memory budget (132–512 MB).
func Fig13(w io.Writer) error {
	pr := core.MustProblem(16000, 16000, 64000, 80)
	mems := workload.MemorySweep()
	fmt.Fprintln(w, "Figure 13 — impact of the worker memory size (16000x16000 by 16000x64000, q=80)")
	fmt.Fprintf(w, "  %-8s", "algo")
	for _, m := range mems {
		fmt.Fprintf(w, " %9dMB", m)
	}
	fmt.Fprintln(w, "   enrolled (132MB → 512MB)")
	for _, name := range algorithms.All() {
		fmt.Fprintf(w, "  %-8s", name)
		var eLow, eHigh int
		for i, m := range mems {
			r, err := algorithms.Run(name, workload.UTK(80, m, 8), pr, algorithms.Options{})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %11.1f", r.Makespan)
			if i == 0 {
				eLow = r.Enrolled
			}
			eHigh = r.Enrolled
		}
		fmt.Fprintf(w, "   %d → %d\n", eLow, eHigh)
	}
	fmt.Fprintln(w, "  (HoLM's resource selection: 2 workers at 132 MB, 4 at 512 MB, as in the paper)")
	return nil
}

// LU reproduces the §7 cost model and resource selection.
func LU(w io.Writer) error {
	fmt.Fprintln(w, "§7 — LU factorization on the master-worker platform")
	fmt.Fprintln(w, "  single-worker totals (blocks / block ops), r=480:")
	fmt.Fprintln(w, "     µ        comm(exact)   (r³/µ+r²)    paper form     work       ⅓(r³+2µ²r)")
	for _, mu := range []int{4, 8, 16, 32} {
		comm, err := lu.TotalComm(480, mu)
		if err != nil {
			return err
		}
		work, _ := lu.TotalWork(480, mu)
		fmt.Fprintf(w, "  %4d %16.0f %12.0f %12.0f %12.0f %12.0f\n",
			mu, comm, lu.ClosedFormCommExact(480, mu), lu.ClosedFormCommPaper(480, mu),
			work, lu.ClosedFormWork(480, mu))
	}

	c, wcost := platform.UTKCalibration().BlockCosts(80)
	fmt.Fprintf(w, "\n  homogeneous resource selection P = ⌈µw/3c⌉ (w/c = %.4f):\n", wcost/c)
	for _, mu := range []int{16, 49, 98, 147} {
		fmt.Fprintf(w, "    µ=%-4d P=%d\n", mu, lu.SelectP(1<<30, mu, c, wcost))
	}

	fmt.Fprintln(w, "\n  heterogeneous chunk-shape policy (square iff µi ≤ µ/2), µ=20:")
	for _, mui := range []int{5, 10, 11, 15, 20} {
		fmt.Fprintf(w, "    µi=%-3d → %s chunk\n", mui, lu.ChooseShape(mui, 20, c, wcost))
	}

	pl := platform.Homogeneous(8, c, wcost, 10000)
	res, err := lu.SimulateHomogeneous(pl, 490, 49, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  simulated homogeneous LU r=490 µ=49: makespan %.1fs, %d workers, prologue %.1fs\n",
		res.Makespan, res.Enrolled, res.PrologTime)
	return nil
}

// HetSweep is the heterogeneous study the paper announces for its final
// version: the impact of the degree of heterogeneity in speed, bandwidth
// and memory on the global/local algorithms, against the steady-state
// upper bound. Its dynamic column is the repository's own scheduler, the
// one mmserve serves with, on the same one-port star (fleet.RunOnePort).
func HetSweep(w io.Writer) error {
	pr := core.Problem{R: 40, S: 40, T: 40, Q: 80}
	cBase, wBase := platform.UTKCalibration().BlockCosts(80)
	fmt.Fprintln(w, "Heterogeneity sweep — 8 workers, ratio of achieved throughput to steady-state bound")
	fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s\n", "heterogeneity", "global", "local", "two-step", "cluster")
	for _, h := range workload.HeterogeneitySweep() {
		pl := h.Platform(42, 8, cBase, wBase, 800)
		sol, err := steady.Solve(pl)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s", h.Name)
		for _, rule := range []hetero.Rule{hetero.Global, hetero.Local, hetero.TwoStep} {
			res, _, err := hetero.Run(pl, pr, rule, hetero.ExecOptions{IncludeCIO: true})
			if err != nil {
				return err
			}
			rate := float64(res.Updates) / res.Makespan
			fmt.Fprintf(w, " %10.3f", rate/sol.Throughput)
		}
		dyn, err := fleet.RunOnePort(pl, pr, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, " %10.3f\n", float64(dyn.Updates)/dyn.Makespan/sol.Throughput)
	}
	fmt.Fprintln(w, "  (1.0 would meet the §6.1 upper bound, which neglects C I/O; bounded")
	fmt.Fprintln(w, "   buffers and the C-chunk traffic keep the realized rate below it)")
	return nil
}

// Grid compares the §1 baselines against the centralized approach: the
// 2D-grid algorithms assume pre-distributed operands, so a fair comparison
// from centralized data must add the O(n²) scatter/gather through the
// master's port, which the paper argues can no longer be neglected.
func Grid(w io.Writer) error {
	const q = 80
	c, wcost := platform.UTKCalibration().BlockCosts(q)
	fmt.Fprintln(w, "§1 — 2D-grid baselines vs centralized master-worker (modelled, q=80)")
	fmt.Fprintln(w, "  n(blocks)  grid   Cannon-only  +scatter/gather   HoLM(centralized)")
	for _, rb := range []int{64, 128, 256} {
		g := 3 // 9 processors ≈ 1 master + 8 workers
		tile := rb / g
		model := grid.CostModel{
			TileComm: float64(tile*tile) * c,
			TileWork: float64(tile*tile*tile) * wcost,
		}
		cannonMs, _ := grid.CannonCost(g, model)
		sg := float64(grid.ScatterGatherBlocks(rb)) * c
		pl := workload.UTK(q, 512, 8)
		pr := core.Problem{R: rb, S: rb, T: rb, Q: q}
		res, err := algorithms.Run(algorithms.HoLM, pl, pr, algorithms.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %8d  %dx%d %12.1fs %15.1fs %18.1fs\n",
			rb, g, g, cannonMs, cannonMs+sg, res.Makespan)
	}
	fmt.Fprintln(w, "  (Cannon wins once data is already distributed; from centralized data the")
	fmt.Fprintln(w, "   one-port scatter/gather dominates, which is the paper's §1 motivation.)")

	// real executions: verify both baselines compute the exact product
	n := 96
	a := matrix.NewDense(n, n)
	b := matrix.NewDense(n, n)
	c1 := matrix.NewDense(n, n)
	matrix.DeterministicFill(a, 1)
	matrix.DeterministicFill(b, 2)
	matrix.DeterministicFill(c1, 3)
	want := c1.Clone()
	matrix.MulNaive(want, a, b)
	c2 := c1.Clone()
	if err := grid.Cannon(c1, a, b, 3); err != nil {
		return err
	}
	if err := grid.OuterProduct(c2, a, b, 3); err != nil {
		return err
	}
	fmt.Fprintf(w, "  real 3x3 goroutine grid on %dx%d: |Cannon-ref|=%.2g |outer-ref|=%.2g\n",
		n, n, c1.MaxDiff(want), c2.MaxDiff(want))
	return nil
}
