//go:build linux

// Command bench is the repository's benchmark: it builds cmd/mmserve
// and cmd/mwworker, boots them as real processes on loopback TCP, drives
// a closed loop of matrix-product jobs through the submit client, checks
// every returned C bit for bit, and prints every metric by name and
// unit. A second, traced pass runs the same stack inside the bench with
// spans around each layer boundary and replays each layer's public
// function alone, which gives the per-layer time budget from outside
// the program. See README.md in this directory and BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/blas"
)

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "operand seed: A, B and C0 are filled from seed, seed+1 and seed+2")
	seconds := flag.Int("seconds", 0, "scale each workload's fixed job count to about this many seconds of timed window (0 = full sizing)")
	trace := flag.Int("trace", 1, "0: untraced pass only, end-to-end metrics; 1: also the traced pass and the replays, per-layer metrics")
	out := flag.String("out", "", "write the full report to this file instead of standard output")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
	checkSpread := flag.Bool("check-spread", false, "run the whole set twice and fail if any gated metric differs by more than its bound")
	smoke := flag.Bool("smoke", false, "in-process self-test: tiny traced pass and replays, no child processes")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadFlag != "" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	cleanupOnSignal()
	began := time.Now()
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1}

	if *smoke {
		rep := runSmoke(opts)
		emit(report{Environment: environment(opts, began), Workloads: []workloadReport{rep}}, *out)
		exitOn(rep)
		return
	}

	prepStart := time.Now()
	bins, err := buildBinaries()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	opts.buildS = time.Since(prepStart).Seconds()

	runSet := func() report {
		var reps []workloadReport
		for _, w := range selected {
			reps = append(reps, runWorkload(bins, w, opts))
		}
		return report{Workloads: reps}
	}
	first := runSet()
	status := 0
	if *checkSpread {
		second := runSet()
		if !printSpread(os.Stderr, first, second) {
			status = 1
		}
		first.Second = second.Workloads
	}
	first.Environment = environment(opts, began)
	if *traceOut != "" {
		spans := make(map[string][]span)
		for _, wr := range first.Workloads {
			spans[wr.Name] = wr.spans
		}
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			status = 1
		}
	}
	emit(first, *out)
	for _, wr := range append(first.Workloads, first.Second...) {
		if wr.Void != "" || wr.Failed > 0 {
			status = 1
		}
	}
	if len(selected) == 1 && !*checkSpread {
		exitOn(first.Workloads[0])
	}
	os.Exit(status)
}

// options are the flags a workload run depends on.
type options struct {
	seed    int64
	seconds int
	traced  bool
	buildS  float64
}

// report is the full output: one environment block, one entry per
// workload, and with -check-spread the second set of runs.
type report struct {
	Environment map[string]any   `json:"environment"`
	Workloads   []workloadReport `json:"workloads"`
	Second      []workloadReport `json:"second_set,omitempty"`
}

// workloadReport is every number measured on one workload.
type workloadReport struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Clients int    `json:"clients"`
	Jobs    int    `json:"jobs"`
	// Void is set when the run cannot be trusted — a child was lost or
	// would not exit, a job failed, the cluster requeued work — and no
	// metric is reported.
	Void           string                 `json:"void,omitempty"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	FailedShare    float64                `json:"failed_share"`
	LatencySamples int                    `json:"latency_samples"`
	TailPercentile int                    `json:"tail_percentile"`
	WindowS        float64                `json:"window_s"`
	SetupsS        []float64              `json:"setups_s"`
	EndToEnd       map[string]metricValue `json:"end_to_end"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	Absent         []string               `json:"absent,omitempty"`
	TracedJobs     int                    `json:"traced_jobs,omitempty"`
	TracedSpans    int                    `json:"traced_spans,omitempty"`
	// TracedRootSelfShare is the part of the traced jobs' round trips
	// during which no recorded child span was open.
	TracedRootSelfShare float64 `json:"traced_root_self_share,omitempty"`
	// InProcessOverProcessP50 relates the two deployments: the untraced
	// median job latency of the stack run inside the bench over that of
	// the three processes. The traced rows are measured on the former.
	InProcessOverProcessP50 float64 `json:"in_process_over_process_p50,omitempty"`

	e2e, layers *metricSet
	spans       []span
}

// runWorkload measures one workload: operands and reference first, then
// the untraced pass over real processes, then — when asked — the traced
// pass and the replays. Any error voids the whole workload.
func runWorkload(bins binaries, w workload, o options) (rep workloadReport) {
	jobs := w.jobsFor(o.seconds)
	rep = workloadReport{Name: w.Name, Why: w.Why, Clients: w.Clients, Jobs: jobs, Attempted: jobs}
	defer func() { rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted) }()
	logf("%s: %d jobs of n=%d q=%d mu=%d over %d client(s)", w.Name, jobs, w.N, w.Q, w.Mu, w.Clients)

	prepStart := time.Now()
	in := makeInputs(w, o.seed)
	if err := prefault(w.prefaultMiB(jobs)); err != nil {
		rep.Void = err.Error()
		return rep
	}
	prepareS := o.buildS + time.Since(prepStart).Seconds()

	// With the traced pass to pay for as well, one set-up is enough:
	// setup_s is an end-to-end metric and is read off -trace 0 runs.
	pr, err := runProcesses(bins, w, in, jobs, !o.traced)
	rep.Failed = pr.failed
	if err != nil {
		rep.Void = err.Error()
		logf("%s: VOID: %v", w.Name, err)
		return rep
	}
	rep.e2e, rep.TailPercentile = endToEndMetrics(w, pr)
	rep.LatencySamples = len(pr.latencies)
	rep.WindowS = pr.window.Seconds()
	rep.SetupsS = pr.setups
	rep.EndToEnd, _ = rep.e2e.present()
	logf("%s: window %.2fs, %.2f Gflop/s, p50 %.2f ms", w.Name, rep.WindowS,
		rep.e2e.getOrNaN("sustained_gflops"), rep.e2e.getOrNaN("job_latency_p50_ms"))
	if !o.traced {
		return rep
	}

	rep.layers = newMetricSet(perLayer)
	rep.layers.set("bench.prepare_s", prepareS)
	procLayerMetrics(rep.layers, w, pr)
	if err := tracedPass(&rep, w, in, max(jobs/4, w.Clients), rep.e2e.getOrNaN("job_latency_p50_ms")); err != nil {
		rep.Void = err.Error()
		logf("%s: VOID: %v", w.Name, err)
		return rep
	}
	if u, ok := rep.layers.get("mwworker.updates_per_job"); ok && u != float64(w.updatesPerJob()) {
		rep.Void = fmt.Sprintf("workers report %.3f block updates per job, want exactly %d", u, w.updatesPerJob())
		logf("%s: VOID: %s", w.Name, rep.Void)
	}
	return rep
}

// tracedPass runs the in-process traced stack and the replays and fills
// the remaining per-layer rows. untracedP50 is NaN when there is no
// untraced pass to compare with (-smoke).
func tracedPass(rep *workloadReport, w workload, in inputs, jobs int, untracedP50 float64) error {
	jobs -= jobs % w.Clients
	tr, err := runTraced(w, in, jobs)
	rep.Attempted += tr.attempted
	rep.Failed += tr.failed
	if err != nil {
		return err
	}
	m := rep.layers
	tracedLayerMetrics(m, tr)
	if err := replayLayerMetrics(m, w, in, untracedP50); err != nil {
		return err
	}
	// What the rows above explain of one job's round trip. The worker
	// sessions run side by side, so their send time counts once per
	// fleet; the codec moves every wire byte once on the master.
	wireMB := m.getOrNaN("netmw.wire_out_mb_per_job")/m.getOrNaN("netmw.codec_encode_gbps") +
		m.getOrNaN("netmw.wire_in_mb_per_job")/m.getOrNaN("netmw.codec_decode_gbps")
	codecMS := wireMB * (1 << 20) / 1e9 * 1e3
	accounted := m.getOrNaN("blas.kernel_ms_per_job") + codecMS +
		m.getOrNaN("engine.send_ms_per_job")/fleetSize +
		m.getOrNaN("store.append_ms_per_job") + m.getOrNaN("cluster.verify_ms_per_job") +
		math.Max(m.getOrNaN("netmw.client_hop_ms"), 0)
	m.set("trace.accounted_share", accounted/m.getOrNaN("netmw.submit_rtt_ms"))

	rep.spans = tr.tr.spans
	rep.TracedJobs = 3 * jobs
	if r := median(tr.base) / untracedP50; !math.IsNaN(r) {
		rep.InProcessOverProcessP50 = r
	}
	rep.TracedSpans = len(rep.spans)
	var rootNS, selfNS int64
	for _, s := range rep.spans {
		if s.Name == spanSubmitRTT || s.Name == spanSubmitToDone {
			rootNS += s.End - s.Start
			selfNS += s.SelfNS
		}
	}
	rep.TracedRootSelfShare = float64(selfNS) / float64(rootNS)
	rep.PerLayer, rep.Absent = m.present()
	return nil
}

// runSmoke is the in-process self-test: the traced pass and the replays
// on a tiny durable, verified job. It starts no child process, so every
// row that comes from the real processes is absent.
func runSmoke(o options) workloadReport {
	w := smokeWorkload
	jobs := w.jobsFor(0)
	rep := workloadReport{Name: w.Name, Why: w.Why, Clients: w.Clients, Jobs: jobs}
	in := makeInputs(w, o.seed)
	rep.layers = newMetricSet(perLayer)
	if err := tracedPass(&rep, w, in, jobs/4, math.NaN()); err != nil {
		rep.Void = err.Error()
	}
	return rep
}

// environment records what the numbers were measured on.
func environment(o options, began time.Time) map[string]any {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	parent := journalParent()
	fs := "unknown"
	if b, err := os.ReadFile("/proc/mounts"); err == nil {
		if abs, err := filepath.Abs(parent); err == nil {
			fs = fsTypeOf(string(b), abs)
		}
	}
	return map[string]any{
		"commit":       commit,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpu,
		"blas_kernel":  blas.KernelName(),
		"workers":      fleetSize,
		"worker_cores": 1,
		"journal_dir":  parent,
		"journal_fs":   fs,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"traced":       o.traced,
		"wall_s":       time.Since(began).Seconds(),
	}
}

// emit writes the full report, indented, to path or standard output.
func emit(r report, path string) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if path == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// exitOn ends a single-workload run the way the driver reads it: the
// last line of standard output is one JSON object with the run's
// verdict and every metric of the pass that was asked for — the
// end-to-end table without tracing, the per-layer table with it. A void
// run prints no result and exits non-zero.
func exitOn(rep workloadReport) {
	if rep.Void != "" {
		fmt.Fprintf(os.Stderr, "bench: %s is void: %s\n", rep.Name, rep.Void)
		os.Exit(1)
	}
	set := rep.e2e
	if rep.layers != nil {
		set = rep.layers
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   set.complete(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if rep.Failed > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
