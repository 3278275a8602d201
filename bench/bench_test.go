//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, so the metric stays absent")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{7, 50}, {19, 50}, {24, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {1200, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and a ')' inside.
	stat := "1234 (mm serve) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 731 269 0 0 20 0 7 0 100 1000 50 18446744073709551615"
	got, err := parseProcStat(stat)
	if err != nil || got != 10*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 10s (731+269 ticks)", got, err)
	}
	if _, err := parseProcStat("1234 (x) S 1 2"); err == nil {
		t.Error("short stat line must be an error")
	}
	status := "Name:\tmmserve\nVmPeak:\t 2000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n"
	if kib, ok := parseVmHWM(status); !ok || kib != 123456 {
		t.Errorf("parseVmHWM = %d, %v", kib, ok)
	}
	if _, ok := parseVmHWM("Name:\tx\n"); ok {
		t.Error("missing VmHWM must not read as present")
	}
	tcp := "  sl  local_address rem_address   st\n" +
		"   0: 0100007F:9A49 00000000:0000 0A 0\n" + // LISTEN
		"   1: 0100007F:9A49 0100007F:D1F2 01 0\n" +
		"   2: 0100007F:D1F2 0100007F:9A49 01 0\n" + // the worker's end
		"   3: 0100007F:9A49 0100007F:D1F4 01 0\n"
	if n := parseEstablished(tcp, 0x9A49); n != 2 {
		t.Errorf("parseEstablished = %d, want 2", n)
	}
	mounts := "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\ntmpfs /dev tmpfs rw 0 0\n"
	if fs := fsTypeOf(mounts, "/dev/shm"); fs != "tmpfs" {
		t.Errorf("fsTypeOf(/dev/shm) = %s", fs)
	}
	if fs := fsTypeOf(mounts, "/root/repo/.bench_build"); fs != "ext4" {
		t.Errorf("fsTypeOf(checkout) = %s", fs)
	}
}

// Golden text: what cmd/mmserve and cmd/mwworker print today.
const goldenServe = `mmserve: listening on 127.0.0.1:39497 (hb-timeout 10s, verify all)
mmserve: draining — new jobs refused, waiting up to 30s for running jobs (signal again to skip)
mmserve: shutting down — 3 jobs done, 0 failed (0 quarantined), 0 workers lost, 0 requeues
mmserve: verification: 576 tiles checked in 52ms, 0 refused (0 escalated recomputes), 0 transport faults, 0 workers quarantined
mmserve: worker w1                   dead  tasks=6     cache-hit= 25.0% bytes-saved=768.00 KiB flushed=24 wire=3.00 MiB out/768.70 KiB in profile[speed=1.91e+04 upd/s bw=5.79e+06 B/s lat=0s (samples 6/1)]
mmserve: worker w0                   dead  tasks=6     cache-hit= 25.0% bytes-saved=768.00 KiB flushed=24 wire=1.25 GiB out/12 B in
mmserve: fleet total: 48 of 192 operand blocks served from worker caches (25.0%), 1.50 MiB not re-sent
mmserve: fleet results: 48 C tiles committed via flush, 0 left dirty
`

const goldenWorker = `mwworker: w0 served 6 tasks, 96 block updates over 1 sessions
mwworker: operand cache: 24 blocks served locally, 0.8 MiB never re-fetched
`

func TestParseStatusLines(t *testing.T) {
	st := parseServeOutput(goldenServe)
	if st.addr != "127.0.0.1:39497" {
		t.Errorf("addr = %q", st.addr)
	}
	if !st.hasShutdown || st.jobsDone != 3 || st.jobsFailed != 0 || st.workersLost != 0 || st.requeues != 0 {
		t.Errorf("shutdown line: %+v", st)
	}
	if !st.hasVerify || st.verifyTiles != 576 || st.verifyTime != 52*time.Millisecond {
		t.Errorf("verification line: %+v", st)
	}
	if !st.hasFleet || st.cacheSkipped != 48 || st.cacheBlocks != 192 {
		t.Errorf("fleet line: %+v", st)
	}
	if len(st.workers) != 2 {
		t.Fatalf("worker lines: %d", len(st.workers))
	}
	w1, w0 := st.workers[0], st.workers[1]
	if w1.name != "w1" || w1.tasks != 6 || !w1.hasWire || w1.wireOut != 3<<20 || math.Abs(w1.wireIn-768.70*1024) > 1e-6 {
		t.Errorf("worker w1: %+v", w1)
	}
	if w0.wireOut != 1.25*(1<<30) || w0.wireIn != 12 {
		t.Errorf("worker w0: %+v", w0)
	}
	we, ok := parseWorkerOutput(goldenWorker)
	if !ok || we != (workerExit{"w0", 6, 96, 1}) {
		t.Errorf("worker exit: %+v %v", we, ok)
	}
	if _, ok := parseWorkerOutput("mwworker: dial tcp: connection refused\n"); ok {
		t.Error("an output without the exit line must not parse")
	}
}

// A status line that went missing leaves its metrics absent; it never
// turns them into zeros.
func TestMissingLineMeansAbsent(t *testing.T) {
	w, _ := workloadByName("durable_verified")
	r := procResult{jobs: 10, totalJobs: 13, window: time.Second, workerCPU: []time.Duration{1, 1}}
	r.exit.serve = parseServeOutput("mmserve: listening on 127.0.0.1:1 (hb-timeout 10s, verify all)\n")
	m := newMetricSet(perLayer)
	procLayerMetrics(m, w, r)
	for _, name := range []string{
		"cluster.requeues", "cluster.workers_lost", "cluster.verify_ms_per_job", "cluster.verify_tiles_per_job",
		"engine.cache_hit_share", "netmw.wire_out_mb_per_job", "netmw.wire_in_mb_per_job", "bounds.comm_over_lw",
		"cluster.tasks_per_job", "mwworker.updates_per_job",
	} {
		if v, ok := m.get(name); ok {
			t.Errorf("%s = %v from an output without its line; want absent", name, v)
		}
	}
	if got := m.complete()["cluster.requeues"].Value; got != absentValue {
		t.Errorf("absent metric in the driver's line = %v, want %v", got, absentValue)
	}

	// The same lines present: verification applies to this workload,
	// and on a bare workload its missing line reads as a true zero.
	r.exit.serve = parseServeOutput(goldenServe)
	m = newMetricSet(perLayer)
	procLayerMetrics(m, w, r)
	if v, ok := m.get("cluster.verify_tiles_per_job"); !ok || v != 576.0/13 {
		t.Errorf("verify tiles per job = %v, %v", v, ok)
	}
	if v, ok := m.get("engine.cache_hit_share"); !ok || v != 0.25 {
		t.Errorf("cache hit share = %v, %v", v, ok)
	}
	bare, _ := workloadByName("small_jobs")
	r.exit.serve = parseServeOutput("mmserve: shutting down — 13 jobs done, 0 failed (0 quarantined), 0 workers lost, 0 requeues\n")
	m = newMetricSet(perLayer)
	procLayerMetrics(m, bare, r)
	if v, ok := m.get("cluster.verify_tiles_per_job"); !ok || v != 0 {
		t.Errorf("bare workload verify tiles = %v, %v; want a present 0", v, ok)
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed charset", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed charset", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		if w.N%w.Q != 0 || w.Jobs%w.Clients != 0 {
			t.Errorf("%s: n=%d q=%d jobs=%d clients=%d do not divide", w.Name, w.N, w.Q, w.Jobs, w.Clients)
		}
		for _, s := range []int{0, 1, 7, 15, 60} {
			if j := w.jobsFor(s); j < 4 || j%w.Clients != 0 || j != w.jobsFor(s) {
				t.Errorf("%s: jobsFor(%d) = %d", w.Name, s, j)
			}
		}
	}
}

// BENCHMARK.json is the contract later changes are judged by; the
// program's tables must say the same thing.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound mismatch or out of range (program %v)", d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}

func TestSpanSelfTime(t *testing.T) {
	if got := unionLength([][2]int64{{0, 10}, {5, 15}, {20, 30}, {22, 25}}); got != 25 {
		t.Errorf("unionLength = %d, want 25", got)
	}
	tr := newTracer()
	tr.on.Store(true)
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	tr.add(spanSend, 7, at(10), at(30), 100)   // first task of job 7
	tr.add(spanAppend, 0, at(20), at(50), 10)  // overlaps the send
	tr.add(spanRecvWait, 7, at(80), at(90), 0) // inside the root
	tr.add(spanSubmitRTT, 0, at(0), at(100), 0)
	tr.link()
	root := tr.spans[3]
	if root.Job != 7 {
		t.Errorf("root span took job %d, want 7 (first job whose task left the master)", root.Job)
	}
	if root.SelfNS != 100-40-10 {
		t.Errorf("root self time = %d, want 50", root.SelfNS)
	}
	for _, s := range tr.spans[:3] {
		if s.Parent != root.ID || s.Job != 7 {
			t.Errorf("span %+v is not under the root", s)
		}
	}
}

// The in-process self-test: a traced pass and every replay on a tiny
// durable, verified job. Every result is bit-checked and the driver's
// line carries every per-layer name; only rows read off real processes
// may be absent.
func TestSmoke(t *testing.T) {
	rep := runSmoke(options{seed: 3})
	if rep.Void != "" {
		t.Fatalf("smoke run is void: %s", rep.Void)
	}
	if rep.Failed != 0 || rep.Attempted != 3*(smokeWorkload.Jobs/4) {
		t.Errorf("attempted %d failed %d", rep.Attempted, rep.Failed)
	}
	line := rep.layers.complete()
	for _, d := range perLayer {
		if _, ok := line[d.Name]; !ok {
			t.Errorf("driver line lacks %s", d.Name)
		}
	}
	for _, d := range perLayer {
		v, ok := rep.layers.get(d.Name)
		switch {
		case strings.HasSuffix(d.Source, "proc"):
			if ok {
				t.Errorf("%s = %v without a process pass", d.Name, v)
			}
		case !ok:
			t.Errorf("%s is absent", d.Name)
		case v < 0 && d.Name != "netmw.client_hop_ms" && d.Name != "trace.overhead_share":
			// Those two are differences of medians and may dip below 0.
			t.Errorf("%s = %v", d.Name, v)
		}
	}
	if v, _ := rep.layers.get("store.appends_per_job"); v <= 0 {
		t.Errorf("durable smoke job journaled %v records per job", v)
	}
	if len(rep.spans) == 0 || rep.TracedRootSelfShare <= 0 || rep.TracedRootSelfShare >= 1 {
		t.Errorf("%d spans, root self share %v", len(rep.spans), rep.TracedRootSelfShare)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report does not marshal: %v", err)
	}
}
