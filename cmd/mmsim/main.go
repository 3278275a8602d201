// Command mmsim simulates one scheduling algorithm on one platform and
// problem, and optionally renders the Gantt chart. With -fleet it
// instead runs the cluster's online-adaptive scheduling rules
// (profile-driven chunk shaping + speculative straggler re-dispatch)
// over a large heterogeneous fleet with churn, against the LP bound.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/steady"
	"repro/internal/trace"
)

func main() {
	alg := flag.String("alg", "HoLM", "HoLM | ORROML | OMMOML | ODDOML | DDOML | BMM | OBMM | global | local | two-step")
	nA := flag.Int("na", 8000, "rows of A and C")
	nAB := flag.Int("nab", 8000, "columns of A / rows of B")
	nB := flag.Int("nb", 64000, "columns of B and C")
	q := flag.Int("q", 80, "block size")
	workers := flag.Int("p", 8, "number of workers")
	memMB := flag.Int("mem", 512, "worker memory in MiB")
	gantt := flag.Bool("gantt", false, "render an ASCII Gantt chart")
	svgPath := flag.String("svg", "", "write the Gantt chart as SVG to this file")
	hetC := flag.Float64("het", 1, "heterogeneity factor for the random platform (1 = homogeneous)")
	seed := flag.Int64("seed", 1, "random platform seed")
	fleet := flag.Int("fleet", 0, "fleet mode: simulate this many heterogeneous workers (3 speed classes, 10% churn) instead of a platform algorithm")
	fleetGrid := flag.Int("fleet-grid", 120, "fleet: C grid side in blocks")
	fleetDepth := flag.Int("fleet-depth", 64, "fleet: update depth T in block steps")
	fleetBaseline := flag.Bool("fleet-baseline", false, "fleet: run the FIFO + fixed-µ baseline instead of the adaptive loop")
	flag.Parse()

	fatalUsage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mmsim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}
	if *workers < 1 {
		fatalUsage("-p must be ≥ 1, got %d", *workers)
	}
	if *memMB < 1 {
		fatalUsage("-mem must be ≥ 1 MiB, got %d", *memMB)
	}
	if *hetC < 1 {
		fatalUsage("-het must be ≥ 1, got %g", *hetC)
	}
	if *fleet < 0 {
		fatalUsage("-fleet must be ≥ 0, got %d", *fleet)
	}
	if *fleet > 0 {
		if *fleetGrid < 1 || *fleetDepth < 1 {
			fatalUsage("-fleet-grid and -fleet-depth must be ≥ 1, got %d and %d", *fleetGrid, *fleetDepth)
		}
		runFleet(*fleet, *fleetGrid, *fleetDepth, *fleetBaseline, *gantt, *svgPath)
		return
	}
	pr, err := core.NewProblem(*nA, *nAB, *nB, *q)
	if err != nil {
		fatalUsage("%v", err)
	}
	c, w := platform.UTKCalibration().BlockCosts(*q)
	m := platform.MemoryBlocks(int64(*memMB)<<20, *q)

	var tr *trace.Trace
	if *gantt || *svgPath != "" {
		tr = &trace.Trace{}
	}

	var res core.Result
	switch *alg {
	case "global", "local", "two-step":
		rule := map[string]hetero.Rule{"global": hetero.Global, "local": hetero.Local, "two-step": hetero.TwoStep}[*alg]
		pl := platform.RandomHeterogeneous(randSource(*seed), *workers, c, w, m, *hetC, *hetC, *hetC)
		fmt.Println(pl)
		if rho, err := steady.Solve(pl); err == nil {
			fmt.Printf("steady-state upper bound: %.4f updates/s\n", rho.Throughput)
		}
		res, _, err = hetero.Run(pl, pr, rule, hetero.ExecOptions{IncludeCIO: true, Trace: tr})
	default:
		pl := platform.Homogeneous(*workers, c, w, m)
		res, err = algorithms.Run(algorithms.Name(*alg), pl, pr, algorithms.Options{Trace: tr})
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("problem:  %s\n", pr)
	fmt.Printf("result:   %s\n", res)
	fmt.Printf("flops:    %.3g, effective %.2f Gflop/s (modelled)\n", pr.Flops(), pr.Flops()/res.Makespan/1e9)
	if *gantt {
		fmt.Println(tr.ASCII(110))
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(tr.SVG(trace.SVGOptions{})), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *svgPath)
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// runFleet runs the simulator's churn-fleet scenario (sim.ChurnFleet:
// three speed classes, 10% churn) through the cluster's adaptive rules,
// or through the FIFO + fixed-µ baseline, and reports the makespan
// against the LP lower bound.
func runFleet(n, grid, depth int, baseline, gantt bool, svgPath string) {
	cfg := sim.ChurnFleet(n, grid, depth, !baseline)
	if gantt || svgPath != "" {
		cfg.Trace = &trace.Trace{}
	}
	res, err := sim.RunFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}
	lb := cfg.LowerBound()
	mode := "adaptive"
	if baseline {
		mode = "baseline"
	}
	fmt.Printf("fleet:    %d workers (3 classes), %d churn events, C %d×%d blocks over T=%d\n",
		n, len(cfg.Events), grid, grid, depth)
	fmt.Printf("mode:     %s\n", mode)
	fmt.Printf("makespan: %.3f s  (LP bound %.3f s, ratio %.2f×)\n", res.Makespan, lb, res.Makespan/lb)
	fmt.Printf("work:     %d chunks, %d updates committed, %d wasted, %d requeues\n",
		res.Chunks, res.Updates, res.WastedUpdates, res.Requeues)
	if res.Speculations > 0 {
		fmt.Printf("spec:     %d duplicates launched, %d won the race\n", res.Speculations, res.SpecWins)
	}
	if gantt {
		fmt.Println(cfg.Trace.ASCII(110))
	}
	if svgPath != "" {
		if err := os.WriteFile(svgPath, []byte(cfg.Trace.SVG(trace.SVGOptions{})), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", svgPath)
	}
}
