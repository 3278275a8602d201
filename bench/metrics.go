//go:build linux

package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark reports. The two tables
// below are the program's side of BENCHMARK.json; a test keeps the two
// in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Source string  // per-layer only: which passes the number needs (see perLayer)
}

// endToEnd is what a user of the service sees, measured on the real
// processes with tracing off. failed_share is printed in the full
// report but is not listed here: it is 0 on a healthy run, and the
// driver's result line already carries attempted and failed.
var endToEnd = []metricDef{
	{Name: "sustained_gflops", Unit: "Gflop/s", Better: "higher", Bound: 0.25},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "master_peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the time budget, one row per layer boundary. Sources:
// "proc" rows come from the real processes of the untraced pass (/proc
// and the status lines they print on exit), "traced" rows from spans
// recorded around the same stack run inside the bench process, "replay"
// rows from one layer's public function run alone at the workload's
// shapes; "+proc" marks a derived row that also needs the untraced
// pass. A row that does not apply to a workload is 0 there (no journal,
// no verifier); a row whose source line went missing is absent, never 0.
var perLayer = []metricDef{
	{Name: "bench.prepare_s", Unit: "s", Better: "lower", Source: "proc"},

	{Name: "mmserve.cpu_ms_per_job", Unit: "ms", Better: "lower", Source: "proc"},
	{Name: "mmserve.cpu_util", Unit: "ratio", Better: "lower", Source: "proc"},
	{Name: "mwworker.cpu_ms_per_job", Unit: "ms", Better: "lower", Source: "proc"},
	{Name: "mwworker.cpu_util", Unit: "ratio", Better: "higher", Source: "proc"},
	{Name: "mwworker.updates_per_job", Unit: "count", Better: "lower", Source: "proc"},
	{Name: "netmw.wire_out_mb_per_job", Unit: "MiB", Better: "lower", Source: "proc"},
	{Name: "netmw.wire_in_mb_per_job", Unit: "MiB", Better: "lower", Source: "proc"},
	{Name: "engine.cache_hit_share", Unit: "ratio", Better: "higher", Source: "proc"},
	{Name: "bounds.comm_over_lw", Unit: "ratio", Better: "lower", Source: "proc"},
	{Name: "cluster.tasks_per_job", Unit: "count", Better: "lower", Source: "proc"},
	{Name: "cluster.requeues", Unit: "count", Better: "lower", Source: "proc"},
	{Name: "cluster.workers_lost", Unit: "count", Better: "lower", Source: "proc"},
	{Name: "cluster.verify_ms_per_job", Unit: "ms", Better: "lower", Source: "proc"},
	{Name: "cluster.verify_tiles_per_job", Unit: "count", Better: "lower", Source: "proc"},
	{Name: "store.journal_mb_per_job", Unit: "MiB", Better: "lower", Source: "proc"},

	{Name: "netmw.submit_rtt_ms", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "cluster.submit_to_done_ms", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "netmw.client_hop_ms", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "engine.send_ms_per_job", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "engine.recv_wait_ms_per_job", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "engine.msgs_per_job", Unit: "count", Better: "lower", Source: "traced"},
	{Name: "engine.bytes_per_msg", Unit: "B", Better: "higher", Source: "traced"},
	{Name: "store.append_ms_per_job", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "store.appends_per_job", Unit: "count", Better: "lower", Source: "traced"},
	{Name: "store.append_p99_ms", Unit: "ms", Better: "lower", Source: "traced"},
	{Name: "store.append_mbps", Unit: "MB/s", Better: "higher", Source: "traced"},

	{Name: "blas.block_update_us", Unit: "us", Better: "lower", Source: "replay"},
	{Name: "blas.update_gflops", Unit: "Gflop/s", Better: "higher", Source: "replay"},
	{Name: "blas.kernel_ms_per_job", Unit: "ms", Better: "lower", Source: "replay"},
	{Name: "blas.kernel_share", Unit: "ratio", Better: "higher", Source: "replay+proc"},
	{Name: "blas.verify_us_per_tile", Unit: "us", Better: "lower", Source: "replay"},
	{Name: "netmw.codec_encode_gbps", Unit: "GB/s", Better: "higher", Source: "replay"},
	{Name: "netmw.codec_decode_gbps", Unit: "GB/s", Better: "higher", Source: "replay"},
	{Name: "netmw.block_rtt_us", Unit: "us", Better: "lower", Source: "replay"},
	{Name: "cluster.local_makespan_ms", Unit: "ms", Better: "lower", Source: "replay"},
	{Name: "bounds.model_makespan_ms", Unit: "ms", Better: "lower", Source: "replay"},
	{Name: "bounds.vs_model", Unit: "ratio", Better: "lower", Source: "replay+proc"},
	{Name: "trace.accounted_share", Unit: "ratio", Better: "higher", Source: "traced+proc"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Source: "traced"},
}

// absentValue stands in the driver's one-line result for a metric whose
// source was missing: that line must carry every name with a number.
// The full report omits the metric and lists its name under "absent".
const absentValue = -1

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against one of the tables above.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64)}
}

// set records a value; NaN and ±Inf mean the inputs were missing and
// leave the metric absent.
func (s *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (s *metricSet) get(name string) (float64, bool) {
	v, ok := s.values[name]
	return v, ok
}

// getOrNaN feeds derived metrics: a missing input makes the result NaN,
// which set then leaves absent.
func (s *metricSet) getOrNaN(name string) float64 {
	if v, ok := s.values[name]; ok {
		return v
	}
	return math.NaN()
}

// present returns the recorded metrics with their units, for the full
// report, and the names that are absent.
func (s *metricSet) present() (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(s.values))
	var absent []string
	for _, d := range s.defs {
		if v, ok := s.values[d.Name]; ok {
			out[d.Name] = metricValue{v, d.Unit}
		} else {
			absent = append(absent, d.Name)
		}
	}
	sort.Strings(absent)
	return out, absent
}

// complete returns every metric of the table, absent ones as
// absentValue: the shape the driver's result line requires.
func (s *metricSet) complete() map[string]metricValue {
	out := make(map[string]metricValue, len(s.defs))
	for _, d := range s.defs {
		v, ok := s.values[d.Name]
		if !ok {
			v = absentValue
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out
}
