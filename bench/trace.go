//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/store"
)

// Span names. The two root spans are one job seen from the client: over
// the TCP submit path, and handed straight to the scheduler.
const (
	spanSubmitRTT    = "netmw.submit_rtt"
	spanSubmitToDone = "cluster.submit_to_done"
	spanSend         = "engine.send"
	spanRecvWait     = "engine.recv_wait"
	spanAppend       = "store.append"
)

// span is one timed interval at a layer boundary. Spans of one job
// share its cluster job id; Parent is the id of the job's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    uint32 `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
	SelfNS int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory until the pass ends. It records only
// while on, so boot and warm-up traffic stays out of the budget.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// jobOrder lists cluster job ids in the order their first task left
	// the master: how TCP root spans, whose client never learns its job
	// id, are matched to their jobs.
	jobOrder []uint32
	seenJob  map[uint32]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), seenJob: make(map[uint32]bool)}
}

func (t *tracer) add(name string, job uint32, start, end time.Time, bytes int) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Bytes: bytes,
	})
	if name == spanSend && job != 0 && !t.seenJob[job] {
		t.seenJob[job] = true
		t.jobOrder = append(t.jobOrder, job)
	}
	t.mu.Unlock()
}

// link resolves parents and self times once recording is over. TCP
// roots take job ids in order of submission; every other span joins
// the root of its job, or — journal appends carry no job id the bench
// can read — the root whose interval holds its start.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots []*span
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == spanSubmitRTT || s.Name == spanSubmitToDone {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	next := 0
	rootOf := make(map[uint32]*span)
	for _, r := range roots {
		if r.Job == 0 && next < len(t.jobOrder) {
			r.Job = t.jobOrder[next]
		}
		next++
		rootOf[r.Job] = r
	}
	covered := make(map[int][][2]int64) // root id → child intervals
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == spanSubmitRTT || s.Name == spanSubmitToDone {
			continue
		}
		s.SelfNS = s.End - s.Start
		r := rootOf[s.Job]
		if s.Job == 0 || r == nil {
			r = nil
			for _, c := range roots {
				if c.Start <= s.Start && s.Start < c.End {
					r = c
					break
				}
			}
		}
		if r == nil {
			continue
		}
		s.Parent = r.ID
		if s.Job == 0 {
			s.Job = r.Job
		}
		lo, hi := max(s.Start, r.Start), min(s.End, r.End)
		if lo < hi {
			covered[r.ID] = append(covered[r.ID], [2]int64{lo, hi})
		}
	}
	for _, r := range roots {
		r.SelfNS = r.End - r.Start - unionLength(covered[r.ID])
	}
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// durations returns the lengths, in ms, of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// bytes sums the payload bytes of every span with this name.
func (t *tracer) bytes(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n float64
	for _, s := range t.spans {
		if s.Name == name {
			n += float64(s.Bytes)
		}
	}
	return n
}

// writeSpans dumps the spans of every traced workload as one JSON file.
func writeSpans(path string, byWorkload map[string][]span) error {
	b, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedTransport records a span around every engine message the master
// exchanges with one worker session. It is installed through
// ClusterServerConfig.WrapTransport, the seam the fault injector uses.
type timedTransport struct {
	inner engine.Transport
	tr    *tracer
	job   atomic.Uint32 // job of the last task sent on this session
}

// payloadBytes is the block payload a message carries, 8 bytes per
// coefficient: what the codec and the wire have to move for it.
func payloadBytes(m engine.Msg) (n int, job uint32) {
	count := func(blocks [][]float64) {
		for _, b := range blocks {
			n += 8 * len(b)
		}
	}
	switch m := m.(type) {
	case *engine.Assign:
		count(m.Blocks)
		job = m.ID.A
	case *engine.Set:
		count(m.A)
		count(m.B)
	case *engine.Result:
		count(m.Blocks)
		job = m.ID.A
	case *engine.FlushResult:
		count(m.Blocks)
		if len(m.IDs) > 0 {
			job, _, _, _ = engine.CBlockCoords(m.IDs[0])
		}
	}
	return n, job
}

func (t *timedTransport) Send(m engine.Msg) error {
	// Send hands the message to the transport, which may recycle it:
	// read what the span needs first.
	n, job := payloadBytes(m)
	if job != 0 {
		t.job.Store(job)
	} else {
		job = t.job.Load()
	}
	start := time.Now()
	err := t.inner.Send(m)
	t.tr.add(spanSend, job, start, time.Now(), n)
	return err
}

func (t *timedTransport) Recv() (engine.Msg, error) {
	start := time.Now()
	m, err := t.inner.Recv()
	end := time.Now()
	if err == nil {
		n, job := payloadBytes(m)
		if job == 0 {
			job = t.job.Load()
		}
		t.tr.add(spanRecvWait, job, start, end, n)
	}
	return m, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// timedLog records a span around every journal append.
type timedLog struct {
	cluster.JobLog
	tr *tracer
}

func (l timedLog) Append(rec []byte) error {
	start := time.Now()
	err := l.JobLog.Append(rec)
	l.tr.add(spanAppend, 0, start, time.Now(), len(rec))
	return err
}

// tracedResult is one traced pass.
type tracedResult struct {
	tr        *tracer
	base      []float64 // ms, TCP submit→result with the tracer off
	rtt       []float64 // ms, TCP submit→result
	direct    []float64 // ms, SubmitJob→Wait→JobResult
	attempted int
	failed    int
}

// runTraced runs the stack the processes run — cluster, TCP server, two
// TCP workers with one core each — inside the bench, with spans around
// every transport message and journal append, and drives it with the
// workload's client loop, jobs jobs per phase (see the phases below).
func runTraced(w workload, in inputs, jobs int) (tracedResult, error) {
	res := tracedResult{tr: newTracer()}
	cfg := cluster.Config{
		// cmd/mmserve's defaults, so the stack schedules as the process does.
		HeartbeatTimeout: 10 * time.Second,
		MaxAttempts:      5,
		Retry:            cluster.RetryPolicy{Backoff: 500 * time.Millisecond},
		Verify:           cluster.VerifyPolicy{Mode: cluster.VerifyOff, QuarantineStrikes: 3},
	}
	if w.Durable {
		dir, err := journalDir()
		if err != nil {
			return res, err
		}
		defer removeTempDir(dir)
		jn, err := store.Open(dir, store.Options{})
		if err != nil {
			return res, err
		}
		defer jn.Close()
		cfg.Log = timedLog{cluster.NewStoreLog(jn), res.tr}
		cfg.Verify.Mode = cluster.VerifyAll
	}
	cl := cluster.New(cfg)
	srv, err := netmw.ServeCluster(cl, netmw.ClusterServerConfig{
		Addr: "127.0.0.1:0", ExpiryEvery: 2 * time.Second,
		WrapTransport: func(_ string, tr engine.Transport) engine.Transport {
			return &timedTransport{inner: tr, tr: res.tr}
		},
	})
	if err != nil {
		return res, err
	}
	workerErr := make(chan error, fleetSize)
	for i := 0; i < fleetSize; i++ {
		go func() {
			// cmd/mwworker's defaults with -cores 1.
			_, err := netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
				Addr: srv.Addr(), Name: fmt.Sprintf("w%d", i), Memory: w.memBlocks(),
				StageCap: 2, Slots: 2, Cores: 1,
				HeartbeatEvery: 2 * time.Second, Reconnect: 10, Backoff: time.Second,
			})
			workerErr <- err
		}()
	}
	// Close in the server's own order — cluster first, so the workers
	// get a Bye — and wait for the worker goroutines to return.
	shutdown := func() error {
		cl.Close()
		srv.Close()
		var first error
		for i := 0; i < fleetSize; i++ {
			if err := <-workerErr; err != nil && first == nil {
				first = fmt.Errorf("traced worker: %w", err)
			}
		}
		return first
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(cl.Workers()) < fleetSize {
		if time.Now().After(deadline) {
			shutdown()
			return res, fmt.Errorf("traced pass: workers did not register")
		}
		time.Sleep(time.Millisecond)
	}

	scratch := in.c0.Clone()
	for i := 0; i < warmupJobs; i++ {
		if _, _, err := submitChecked(srv.Addr(), w, in, scratch); err != nil {
			shutdown()
			return res, fmt.Errorf("traced warm-up %d: %w", i, err)
		}
	}

	// The client loop three times over. First untraced, over TCP: the
	// baseline the tracing overhead is measured against, in the same
	// deployment. Then traced over TCP, as in the untraced pass over
	// processes. Then traced with the job handed straight to the
	// scheduler — the paper's centralised-data model, no client hop.
	phase := func(job func(c *matrix.Blocked) (time.Duration, error)) ([]float64, error) {
		lat, failed, err := closedLoop(w.Clients, jobs, in, job)
		res.attempted += jobs
		res.failed += failed
		return lat, err
	}
	overTCP := func(c *matrix.Blocked) (time.Duration, error) {
		start, d, err := submitChecked(srv.Addr(), w, in, c)
		res.tr.add(spanSubmitRTT, 0, start, start.Add(d), 0)
		return d, err
	}
	direct := func(*matrix.Blocked) (time.Duration, error) {
		spec := cluster.JobSpec{Kind: cluster.MatMul, C: in.c0.Clone(), A: in.a, B: in.b, Mu: w.Mu}
		start := time.Now()
		id, got, err := runDirect(cl, spec)
		end := time.Now()
		if err == nil {
			err = in.check(got)
		}
		res.tr.add(spanSubmitToDone, uint32(id), start, end, 0)
		return end.Sub(start), err
	}
	if res.base, err = phase(overTCP); err == nil {
		res.tr.on.Store(true)
		if res.rtt, err = phase(overTCP); err == nil {
			res.direct, err = phase(direct)
		}
	}
	if err != nil {
		shutdown()
		return res, fmt.Errorf("traced pass: %w", err)
	}
	res.tr.on.Store(false)

	// Read the counters before closing, as mmserve does: the sessions
	// that Close ends count as lost workers.
	st := cl.ClusterStats()
	if err := shutdown(); err != nil {
		return res, err
	}
	if st.WorkersLost != 0 || st.Requeues != 0 || st.JobsFailed != 0 {
		return res, fmt.Errorf("traced pass: %d workers lost, %d requeues, %d jobs failed", st.WorkersLost, st.Requeues, st.JobsFailed)
	}
	res.tr.link()
	return res, nil
}

// runDirect is a job without the client hop: submit, wait, fetch.
func runDirect(cl *cluster.Cluster, spec cluster.JobSpec) (cluster.JobID, *matrix.Blocked, error) {
	id, err := cl.SubmitJob(spec)
	if err != nil {
		return 0, nil, err
	}
	if _, err := cl.Wait(id); err != nil {
		return id, nil, err
	}
	got, err := cl.JobResult(id)
	return id, got, err
}

// tracedLayerMetrics fills the per-layer rows that come from spans.
// Per-job figures divide by every job of both phases: the transport and
// the journal do the same work for a job however it was submitted.
func tracedLayerMetrics(m *metricSet, r tracedResult) {
	all := float64(len(r.rtt) + len(r.direct))
	m.set("netmw.submit_rtt_ms", median(r.rtt))
	m.set("cluster.submit_to_done_ms", median(r.direct))
	m.set("netmw.client_hop_ms", median(r.rtt)-median(r.direct))
	m.set("trace.overhead_share", median(r.rtt)/median(r.base)-1)

	send, recv := r.tr.durations(spanSend), r.tr.durations(spanRecvWait)
	msgs := float64(len(send) + len(recv))
	m.set("engine.send_ms_per_job", sum(send)/all)
	m.set("engine.recv_wait_ms_per_job", sum(recv)/all)
	m.set("engine.msgs_per_job", msgs/all)
	m.set("engine.bytes_per_msg", (r.tr.bytes(spanSend)+r.tr.bytes(spanRecvWait))/msgs)

	app := r.tr.durations(spanAppend)
	m.set("store.append_ms_per_job", sum(app)/all)
	m.set("store.appends_per_job", float64(len(app))/all)
	if len(app) > 0 {
		m.set("store.append_p99_ms", percentile(app, 99))
		m.set("store.append_mbps", r.tr.bytes(spanAppend)/1e6/(sum(app)/1e3))
	} else {
		m.set("store.append_p99_ms", 0)
		m.set("store.append_mbps", 0)
	}
}
