//go:build linux

package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/bounds"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

// jobTimeout bounds one submit→result round trip; a job that takes
// longer is a failure and voids the run.
const jobTimeout = 60 * time.Second

// buildDir holds the binaries under test and, when /dev/shm is not
// usable, the journal; it is relative to the checkout the bench runs in.
const buildDir = ".bench_build"

// binaries are the programs under test, built before any clock starts.
type binaries struct{ mmserve, mwworker string }

// buildBinaries compiles cmd/mmserve and cmd/mwworker from the checkout
// the bench was started in.
func buildBinaries() (binaries, error) {
	dir, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return binaries{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/mmserve", "./cmd/mwworker")
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{filepath.Join(dir, "mmserve"), filepath.Join(dir, "mwworker")}, nil
}

// stack is one freshly booted mmserve with its fleet of mwworkers.
type stack struct {
	serve    *child
	workers  []*child
	addr     string
	storeDir string // journal directory, "" unless the workload is durable
}

// journalParent picks where a durable workload journals: tmpfs when the
// host has it, so the benchmark times the journal's code path and not
// the sandbox's disk, else the build directory.
func journalParent() string {
	if d, err := os.MkdirTemp("/dev/shm", "mmbench-probe-*"); err == nil {
		os.Remove(d)
		return "/dev/shm"
	}
	return buildDir
}

// journalDir makes a fresh journal directory, removed on every exit path.
func journalDir() (string, error) {
	parent := journalParent()
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := tempDir(parent, "mmbench-journal-*")
	if err != nil {
		return "", fmt.Errorf("journal dir: %w", err)
	}
	return dir, nil
}

// boot starts mmserve on an ephemeral port, reads the bound address off
// its "listening on" line, starts the workers and waits until all of
// them hold an established connection.
func boot(bins binaries, w workload) (*stack, error) {
	s := &stack{}
	args := []string{"-addr", "127.0.0.1:0"}
	if w.Durable {
		dir, err := journalDir()
		if err != nil {
			return nil, err
		}
		s.storeDir = dir
		args = append(args, "-store", dir, "-verify")
	} else {
		args = append(args, "-verify=false")
	}
	addrCh := make(chan string, 1)
	var once sync.Once
	serve, err := spawn("mmserve", bins.mmserve, func(line string) {
		if m := reListening.FindStringSubmatch(line); m != nil {
			once.Do(func() { addrCh <- m[1] })
		}
	}, args...)
	if err != nil {
		s.kill()
		return nil, err
	}
	s.serve = serve
	select {
	case s.addr = <-addrCh:
	case <-serve.done:
		s.kill()
		return nil, fmt.Errorf("mmserve exited before listening:\n%s", serve.output())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("mmserve never printed its listen address")
	}
	_, portStr, err := net.SplitHostPort(s.addr)
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("listen address %q: %w", s.addr, err)
	}
	port, _ := strconv.Atoi(portStr)
	for i := 0; i < fleetSize; i++ {
		name := fmt.Sprintf("w%d", i)
		wk, err := spawn(name, bins.mwworker, nil,
			"-cluster", "-cores", "1", "-addr", s.addr, "-name", name,
			"-mem", strconv.Itoa(w.MemMB), "-q", strconv.Itoa(w.Q))
		if err != nil {
			s.kill()
			return nil, err
		}
		s.workers = append(s.workers, wk)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		tcp, err := os.ReadFile("/proc/net/tcp")
		if err != nil {
			s.kill()
			return nil, err
		}
		if parseEstablished(string(tcp), port) >= fleetSize {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("workers did not all connect within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill tears the stack down without ceremony (error paths).
func (s *stack) kill() {
	if s.serve != nil {
		s.serve.kill()
	}
	for _, wk := range s.workers {
		wk.kill()
	}
	if s.storeDir != "" {
		removeTempDir(s.storeDir)
	}
}

// stackExit is what the processes said on their way out.
type stackExit struct {
	serve        serveStatus
	workers      []workerExit
	journalBytes int64
}

// stop shuts the stack down the way an operator would: SIGTERM mmserve,
// read its shutdown status, then reap the workers, which leave on the
// server's Bye. Any process that has to be killed, or a worker without
// an exit line, is an error: the run is void.
func (s *stack) stop() (stackExit, error) {
	var ex stackExit
	var errs []error
	syscall.Kill(s.serve.pid(), syscall.SIGTERM)
	if err := s.serve.wait(30 * time.Second); err != nil {
		errs = append(errs, err)
		s.serve.kill()
	}
	ex.serve = parseServeOutput(s.serve.output())
	for _, wk := range s.workers {
		if err := wk.wait(15 * time.Second); err != nil {
			errs = append(errs, err)
			wk.kill()
			continue
		}
		we, ok := parseWorkerOutput(wk.output())
		if !ok {
			errs = append(errs, fmt.Errorf("%s printed no exit line:\n%s", wk.name, wk.output()))
			continue
		}
		if we.sessions != 1 {
			errs = append(errs, fmt.Errorf("%s lost its connection: %d sessions", wk.name, we.sessions))
		}
		ex.workers = append(ex.workers, we)
	}
	if s.storeDir != "" {
		ex.journalBytes = dirSize(s.storeDir)
		removeTempDir(s.storeDir)
	}
	return ex, errors.Join(errs...)
}

func dirSize(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir) // a vanished journal reads as empty
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}

// submitChecked runs one job through the TCP client and checks its C.
// c is scratch the caller owns; start and the returned duration cover
// the submit→result time only, with C already reset and the check after.
func submitChecked(addr string, w workload, in inputs, c *matrix.Blocked) (start time.Time, lat time.Duration, err error) {
	in.resetC(c)
	start = time.Now()
	err = netmw.SubmitMatMulTCP(addr, c, in.a, in.b, w.Mu, jobTimeout)
	lat = time.Since(start)
	if err == nil {
		err = in.check(c)
	}
	return start, lat, err
}

// setUp is the user-visible cold start: boot the stack, run the warm-up
// jobs. Its duration is setup_s.
func setUp(bins binaries, w workload, in inputs) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := boot(bins, w)
	if err != nil {
		return nil, 0, err
	}
	scratch := in.c0.Clone()
	for i := 0; i < warmupJobs; i++ {
		if _, _, err := submitChecked(s.addr, w, in, scratch); err != nil {
			s.kill()
			return nil, 0, fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return s, time.Since(start), nil
}

// closedLoop is the load generator: clients goroutines share jobs jobs
// equally, and each submits its next job only when the previous one has
// returned and been checked. job gets the client's private C buffer. It
// returns every job's latency in ms. A failed job stops its client: the
// stack is then in an unknown state and the caller voids the run.
func closedLoop(clients, jobs int, in inputs, job func(c *matrix.Blocked) (time.Duration, error)) (latMS []float64, failed int, err error) {
	lat := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := in.c0.Clone()
			for j := 0; j < jobs/clients; j++ {
				d, err := job(scratch)
				if err != nil {
					errs[c] = fmt.Errorf("client %d job %d: %w", c, j, err)
					return
				}
				lat[c] = append(lat[c], float64(d)/1e6)
			}
		}()
	}
	wg.Wait()
	for c := range lat {
		latMS = append(latMS, lat[c]...)
		if errs[c] != nil {
			failed++
		}
	}
	return latMS, failed, errors.Join(errs...)
}

// procResult is one untraced pass over real processes.
type procResult struct {
	jobs      int
	failed    int
	window    time.Duration
	latencies []float64 // ms, successful jobs
	setups    []float64 // s, one per set-up
	peakRSS   float64   // MiB, mmserve VmHWM
	hasRSS    bool
	serveCPU  time.Duration   // over the window
	workerCPU []time.Duration // over the window, per worker
	exit      stackExit
	totalJobs int // every job this mmserve ran: warm-ups and timed
}

// The untraced pass sets the stack up several times and reports the
// median as setup_s; the last stack serves the timed window. Three
// times at least, and — a 0.08 s set-up needs more samples than a 4 s
// one to repeat within its bound — on until setupBudget is spent, nine
// times at most.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// runProcesses boots a fresh stack (repeatedly if repeatSetup, keeping
// the last), drives the closed loop of jobs timed jobs through it, and
// shuts it down. An error means the run is void: a child was lost,
// would not exit, or the cluster reported a lost worker or a requeue.
func runProcesses(bins binaries, w workload, in inputs, jobs int, repeatSetup bool) (procResult, error) {
	res := procResult{jobs: jobs}
	var s *stack
	var spent time.Duration
	for i := 0; ; i++ {
		var d time.Duration
		var err error
		if s, d, err = setUp(bins, w, in); err != nil {
			return res, err
		}
		res.setups = append(res.setups, d.Seconds())
		spent += d
		if !repeatSetup || i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupBudget) {
			break
		}
		if _, err := s.stop(); err != nil {
			return res, fmt.Errorf("set-up %d shutdown: %w", i, err)
		}
	}

	cpu0, err := stackCPU(s)
	if err != nil {
		s.kill()
		return res, err
	}
	start := time.Now()
	var failed int
	res.latencies, failed, err = closedLoop(w.Clients, jobs, in, func(c *matrix.Blocked) (time.Duration, error) {
		_, d, err := submitChecked(s.addr, w, in, c)
		return d, err
	})
	res.window = time.Since(start)
	res.failed = failed
	if err != nil {
		s.kill()
		return res, err
	}
	cpu1, err := stackCPU(s)
	if err != nil {
		s.kill()
		return res, err
	}
	res.serveCPU = cpu1[0] - cpu0[0]
	for i := range s.workers {
		res.workerCPU = append(res.workerCPU, cpu1[i+1]-cpu0[i+1])
	}
	res.peakRSS, res.hasRSS = s.serve.peakRSSMiB()
	res.totalJobs = warmupJobs + jobs

	if res.exit, err = s.stop(); err != nil {
		return res, err
	}
	st := res.exit.serve
	if st.hasShutdown && (st.workersLost != 0 || st.requeues != 0 || st.jobsFailed != 0) {
		return res, fmt.Errorf("mmserve reported %d workers lost, %d requeues, %d jobs failed", st.workersLost, st.requeues, st.jobsFailed)
	}
	return res, nil
}

// stackCPU reads utime+stime of mmserve (index 0) and each worker.
func stackCPU(s *stack) ([]time.Duration, error) {
	out := make([]time.Duration, 0, 1+len(s.workers))
	for _, c := range append([]*child{s.serve}, s.workers...) {
		d, err := c.cpuTime()
		if err != nil {
			return nil, fmt.Errorf("cpu time of %s: %w", c.name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// endToEndMetrics turns an untraced pass into the end-to-end table.
func endToEndMetrics(w workload, r procResult) (*metricSet, int) {
	m := newMetricSet(endToEnd)
	ok := len(r.latencies)
	m.set("sustained_gflops", w.flopsPerJob()*float64(ok)/r.window.Seconds()/1e9)
	m.set("job_latency_p50_ms", median(r.latencies))
	tail := tailPercentile(ok)
	m.set("job_latency_tail_ms", percentile(r.latencies, float64(tail)))
	if r.hasRSS {
		m.set("master_peak_rss_mb", r.peakRSS)
	}
	m.set("setup_s", median(r.setups))
	return m, tail
}

// procLayerMetrics fills the per-layer rows that come from the real
// processes: /proc over the timed window and the status lines printed
// on exit, which cover every job the stack ran (warm-ups included).
func procLayerMetrics(m *metricSet, w workload, r procResult) {
	jobs, all := float64(r.jobs), float64(r.totalJobs)
	win := r.window.Seconds()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	m.set("mmserve.cpu_ms_per_job", ms(r.serveCPU)/jobs)
	m.set("mmserve.cpu_util", r.serveCPU.Seconds()/win)
	var wcpu time.Duration
	for _, d := range r.workerCPU {
		wcpu += d
	}
	m.set("mwworker.cpu_ms_per_job", ms(wcpu)/jobs)
	m.set("mwworker.cpu_util", wcpu.Seconds()/win/float64(len(r.workerCPU)))

	if len(r.exit.workers) == fleetSize {
		var updates int
		for _, we := range r.exit.workers {
			updates += we.updates
		}
		m.set("mwworker.updates_per_job", float64(updates)/all)
	}

	st := r.exit.serve
	if len(st.workers) == fleetSize {
		var tasks int
		var out, in float64
		wire := true
		for _, wl := range st.workers {
			tasks += wl.tasks
			out, in = out+wl.wireOut, in+wl.wireIn
			wire = wire && wl.hasWire
		}
		m.set("cluster.tasks_per_job", float64(tasks)/all)
		if wire {
			m.set("netmw.wire_out_mb_per_job", out/all/(1<<20))
			m.set("netmw.wire_in_mb_per_job", in/all/(1<<20))
			// The paper's CCR: blocks moved per block update, against
			// the Loomis–Whitney floor for the memory a worker advertises.
			blocks := (out + in) / all / float64(8*w.Q*w.Q)
			floor := bounds.LowerBoundLoomisWhitney(w.memBlocks()) * float64(w.updatesPerJob())
			m.set("bounds.comm_over_lw", blocks/floor)
		}
	}
	if st.hasFleet && st.cacheBlocks > 0 {
		m.set("engine.cache_hit_share", float64(st.cacheSkipped)/float64(st.cacheBlocks))
	}
	if st.hasShutdown {
		m.set("cluster.requeues", float64(st.requeues))
		m.set("cluster.workers_lost", float64(st.workersLost))
	}
	switch {
	case st.hasVerify:
		m.set("cluster.verify_ms_per_job", ms(st.verifyTime)/all)
		m.set("cluster.verify_tiles_per_job", float64(st.verifyTiles)/all)
	case !w.Durable && st.hasShutdown:
		// mmserve ran with -verify=false and prints the line only when
		// it checked something: nothing was verified.
		m.set("cluster.verify_ms_per_job", 0)
		m.set("cluster.verify_tiles_per_job", 0)
	}
	m.set("store.journal_mb_per_job", float64(r.exit.journalBytes)/all/(1<<20))
}
