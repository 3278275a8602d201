// Command mmserve runs the long-running fault-tolerant cluster scheduler:
// it accepts mwworker processes over TCP, takes concurrent
// matrix-product and LU job submissions, detects dead workers by heartbeat
// expiry, and reschedules their lost work onto the survivors.
//
// With -store it is crash-safe: every job acceptance, committed chunk and
// terminal state is journaled to an fsync'd write-ahead log before being
// acknowledged, and on boot the journal is replayed — finished jobs keep
// serving their results to resubmitted keys, unfinished jobs resume with
// exactly their uncommitted work requeued. SIGTERM drains gracefully
// (stop admitting, finish what is running, then compact the journal);
// a second signal, or the -drain-timeout deadline, exits immediately —
// which is safe, because the journal replays on the next boot.
//
// It doubles as the submission client: `mmserve -submit` builds a
// deterministic job, sends it to a running server, and verifies the
// result.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/store"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mmserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7071", "listen address (serve) or server address (submit)")
	hbTimeout := flag.Duration("hb-timeout", 10*time.Second, "declare a worker dead after this much heartbeat silence")
	expiryEvery := flag.Duration("expiry-every", 2*time.Second, "heartbeat-expiry sweep cadence")
	maxAttempts := flag.Int("max-attempts", 5, "dispatch attempts per task before its job fails")
	adaptive := flag.Bool("adaptive", false, "profile-driven chunk shaping: size each worker's chunks to its measured speed")
	chunkTarget := flag.Duration("chunk-target", 250*time.Millisecond, "adaptive: target wall time per chunk")
	specFactor := flag.Float64("spec-factor", 0, "adaptive: duplicate a straggler's chunk when its ETA exceeds this factor × an idle worker's (0 = off)")
	storeDir := flag.String("store", "", "journal directory for the durable control plane (empty = in-memory only, no crash safety)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "on SIGTERM, wait this long for running jobs to finish before exiting anyway")
	retryBackoff := flag.Duration("retry-backoff", 500*time.Millisecond, "base delay before re-dispatching a task lost with its worker (doubles per attempt, up to 16×)")
	quarStrikes := flag.Int("quarantine-strikes", 3, "serve: refused tasks before a worker is quarantined for corrupt results")

	submit := flag.Bool("submit", false, "act as a client: submit one job and wait for the result")
	kind := flag.String("kind", "matmul", "submit job kind: matmul | lu")
	n := flag.Int("n", 512, "submit: square matrix dimension (divisible by q)")
	q := flag.Int("q", 64, "submit: block size")
	mu := flag.Int("mu", 4, "submit: chunk side in blocks (µ)")
	seed := flag.Int64("seed", 1, "submit: deterministic fill seed")
	verify := flag.Bool("verify", true, "submit: check the result against a local reference; serve: Freivalds-verify worker results before commit")
	timeout := flag.Duration("timeout", 10*time.Minute, "submit: round-trip deadline")
	key := flag.Uint64("key", 0, "submit: idempotency key — retries and resubmissions with one key attach to one job (0 = fresh random key)")
	retries := flag.Int("retries", 0, "submit: resubmit this many times after transport failures (same key each time)")
	flag.Parse()

	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}
	if *submit {
		runSubmit(*addr, *kind, *n, *q, *mu, *seed, *verify, *timeout, *key, *retries)
		return
	}
	if *hbTimeout <= 0 {
		fatalUsage("-hb-timeout must be positive, got %v", *hbTimeout)
	}
	if *expiryEvery <= 0 {
		fatalUsage("-expiry-every must be positive, got %v", *expiryEvery)
	}
	if *maxAttempts < 1 {
		fatalUsage("-max-attempts must be ≥ 1, got %d", *maxAttempts)
	}
	if *chunkTarget <= 0 {
		fatalUsage("-chunk-target must be positive, got %v", *chunkTarget)
	}
	if *specFactor < 0 {
		fatalUsage("-spec-factor must be ≥ 0, got %g", *specFactor)
	}
	if *retryBackoff < 0 {
		fatalUsage("-retry-backoff must be ≥ 0, got %v", *retryBackoff)
	}
	if *drainTimeout < 0 {
		fatalUsage("-drain-timeout must be ≥ 0, got %v", *drainTimeout)
	}
	if *quarStrikes < 1 {
		fatalUsage("-quarantine-strikes must be ≥ 1, got %d", *quarStrikes)
	}
	vp := cluster.VerifyPolicy{Mode: cluster.VerifyOff, QuarantineStrikes: *quarStrikes}
	if *verify {
		vp.Mode = cluster.VerifyAll
	}

	cfg := cluster.Config{
		HeartbeatTimeout: *hbTimeout,
		MaxAttempts:      *maxAttempts,
		Retry:            cluster.RetryPolicy{Backoff: *retryBackoff},
		Verify:           vp,
		Adaptive: cluster.AdaptiveConfig{
			Enabled:           *adaptive,
			ChunkTarget:       *chunkTarget,
			SpeculationFactor: *specFactor,
		},
	}
	var jn *store.Journal
	if *storeDir != "" {
		var err error
		jn, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: open journal: %v\n", err)
			os.Exit(1)
		}
		cfg.Log = cluster.NewStoreLog(jn)
	}
	cl := cluster.New(cfg)
	if jn != nil {
		began := time.Now()
		rs, err := cl.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: journal replay: %v\n", err)
			os.Exit(1)
		}
		if rs.Jobs > 0 || rs.Events > 0 {
			fmt.Printf("mmserve: recovered %d jobs from %s in %v (%d events, %d chunk commits: %d resumed, %d done, %d failed)\n",
				rs.Jobs, *storeDir, time.Since(began).Round(time.Millisecond), rs.Events, rs.Chunks, rs.Resumed, rs.Done, rs.Failed)
		}
		// Fold the replayed history into one snapshot record so the next
		// boot replays a bounded journal regardless of how long this
		// incarnation ran.
		if err := cl.CompactLog(); err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: compact journal: %v\n", err)
			os.Exit(1)
		}
	}
	srv, err := netmw.ServeCluster(cl, netmw.ClusterServerConfig{Addr: *addr, ExpiryEvery: *expiryEvery})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mmserve: listening on %s (hb-timeout %v, verify %s)\n", srv.Addr(), *hbTimeout, vp.Mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: refuse new jobs, let running ones finish. A second
	// signal — or the drain deadline — cuts over to immediate shutdown,
	// which the journal makes safe: whatever was still running resumes on
	// the next boot.
	cl.Drain()
	fmt.Printf("mmserve: draining — new jobs refused, waiting up to %v for running jobs (signal again to skip)\n", *drainTimeout)
	quiesced := make(chan bool, 1)
	go func() { quiesced <- cl.AwaitQuiesce(*drainTimeout) }()
	select {
	case ok := <-quiesced:
		if !ok {
			fmt.Printf("mmserve: drain timed out after %v; shutting down with jobs in flight\n", *drainTimeout)
		}
	case <-sig:
		fmt.Println("mmserve: second signal; shutting down immediately")
	}
	st := cl.ClusterStats()
	jobs := cl.Jobs()
	cl.Close()
	srv.Close()
	if jn != nil {
		jn.Close()
	}
	fmt.Printf("mmserve: shutting down — %d jobs done, %d failed (%d quarantined), %d workers lost, %d requeues, kernel=%s\n",
		st.JobsDone, st.JobsFailed, st.JobsQuarantined, st.WorkersLost, st.Requeues, blas.KernelName())
	if st.Speculations > 0 {
		fmt.Printf("mmserve: straggler re-dispatch: %d duplicates launched, %d won the race\n",
			st.Speculations, st.SpecWins)
	}
	if st.VerifyChecks > 0 || st.TransportFaults > 0 || st.WorkersQuarantined > 0 {
		fmt.Printf("mmserve: verification: %d tiles checked in %v, %d refused (%d escalated recomputes), %d transport faults, %d workers quarantined\n",
			st.VerifyChecks, time.Duration(st.VerifyNS).Round(time.Millisecond),
			st.VerifyFailures, st.TilesRecomputed, st.TransportFaults, st.WorkersQuarantined)
	}
	for _, qw := range cl.QuarantinedWorkers() {
		fmt.Printf("mmserve: worker %s QUARANTINED after %d strikes (%s)\n", qw.ID, qw.Strikes, qw.Reason)
	}
	for _, js := range jobs {
		if js.Quarantined {
			msg := ""
			if js.Err != nil {
				msg = ": " + js.Err.Error()
			}
			// Tasks are cut at dispatch: the total is what was cut so far.
			fmt.Printf("mmserve: job %d QUARANTINED after %d tasks done of %d cut%s\n",
				js.ID, js.TasksDone, js.TasksTotal, msg)
		}
	}
	// Snapshot the registry only now: Close drained the worker sessions,
	// which is when each session's comm accounting lands.
	printWorkerStatus(cl.Workers())
}

// printWorkerStatus reports each worker's operand-cache effectiveness,
// result residency, wire traffic and measured profile: the delta
// protocol's hit rate (lifetime, with the current session's rate
// alongside when the worker has reconnected — lifetime denominators
// carry across sessions, so the two diverge), the payload bytes kept
// off the wire, the C tiles committed from the worker's results, the
// transport's per-conn byte counters, and the speed /
// bandwidth estimate the adaptive planner sized its chunks from.
func printWorkerStatus(workers []cluster.WorkerInfo) {
	var shipped, skipped, saved, flushed int64
	for _, wi := range workers {
		state := "alive"
		if wi.Dead {
			state = "dead"
		}
		line := fmt.Sprintf("mmserve: worker %-20s %-5s tasks=%-5d cache-hit=%5.1f%% bytes-saved=%s flushed=%d",
			wi.ID, state, wi.Done, wi.CacheHitRate()*100, humanBytes(wi.BytesSaved), wi.FlushedBlocks)
		if wi.WireBytesOut > 0 || wi.WireBytesIn > 0 {
			line += fmt.Sprintf(" wire=%s out/%s in", humanBytes(wi.WireBytesOut), humanBytes(wi.WireBytesIn))
		}
		if wi.Sessions > 1 {
			line += fmt.Sprintf(" sessions=%d session-hit=%5.1f%%", wi.Sessions, wi.SessionCacheHitRate()*100)
		}
		if wi.Profile.ComputeSamples > 0 || wi.Profile.CommSamples > 0 {
			line += fmt.Sprintf(" profile[%s]", wi.Profile)
		}
		if wi.TransportFaults > 0 {
			line += fmt.Sprintf(" crc-faults=%d", wi.TransportFaults)
		}
		if wi.Strikes > 0 || wi.VerifyFailures > 0 {
			line += fmt.Sprintf(" strikes=%d refused-tiles=%d", wi.Strikes, wi.VerifyFailures)
		}
		if wi.Quarantined {
			line += " QUARANTINED"
		}
		fmt.Println(line)
		shipped += wi.BlocksShipped
		skipped += wi.BlocksSkipped
		saved += wi.BytesSaved
		flushed += wi.FlushedBlocks
	}
	if total := shipped + skipped; total > 0 {
		fmt.Printf("mmserve: fleet total: %d of %d operand blocks served from worker caches (%.1f%%), %s not re-sent\n",
			skipped, total, 100*float64(skipped)/float64(total), humanBytes(saved))
	}
	if flushed > 0 {
		fmt.Printf("mmserve: fleet results: %d C tiles committed\n", flushed)
	}
}

// humanBytes renders a byte count for the status output.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func runSubmit(addr, kind string, n, q, mu int, seed int64, verify bool, timeout time.Duration, key uint64, retries int) {
	if q < 1 {
		fatalUsage("-q must be ≥ 1, got %d", q)
	}
	if n < q || n%q != 0 {
		fatalUsage("-n %d must be a positive multiple of -q %d", n, q)
	}
	if mu < 1 {
		fatalUsage("-mu must be ≥ 1, got %d", mu)
	}
	if timeout <= 0 {
		fatalUsage("-timeout must be positive, got %v", timeout)
	}
	if retries < 0 {
		fatalUsage("-retries must be ≥ 0, got %d", retries)
	}
	opts := netmw.SubmitOptions{
		Key: key, Retries: retries, Timeout: timeout,
		Backoff: time.Second,
	}
	// The "done in" line times the submit alone; the local oracle, which
	// takes several times as long as the job, is timed on its own line.
	switch kind {
	case "matmul":
		ad := matrix.NewDense(n, n)
		bd := matrix.NewDense(n, n)
		cd := matrix.NewDense(n, n)
		matrix.DeterministicFill(ad, seed)
		matrix.DeterministicFill(bd, seed+1)
		matrix.DeterministicFill(cd, seed+2)
		c := matrix.Partition(cd, q)
		start := time.Now()
		if err := netmw.SubmitMatMulDurable(addr, c, matrix.Partition(ad, q), matrix.Partition(bd, q), mu, opts); err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: submit: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mmserve: matmul n=%d q=%d µ=%d done in %v\n", n, q, mu, time.Since(start))
		if verify {
			start = time.Now()
			matrix.MulNaive(cd, ad, bd) // Partition copied cd: it still holds the initial C
			fmt.Printf("mmserve: oracle MulNaive in %v\n", time.Since(start))
			checkDiff(c.Assemble().MaxDiff(cd))
		}
	case "lu":
		orig := matrix.NewDense(n, n)
		lu.DiagonallyDominant(orig, seed)
		m := matrix.Partition(orig.Clone(), q)
		start := time.Now()
		if err := netmw.SubmitLUDurable(addr, m, mu, opts); err != nil {
			fmt.Fprintf(os.Stderr, "mmserve: submit: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("mmserve: lu n=%d q=%d µ=%d done in %v\n", n, q, mu, time.Since(start))
		if verify {
			start = time.Now()
			res := lu.Residual(orig, m.Assemble())
			fmt.Printf("mmserve: oracle lu.Residual in %v\n", time.Since(start))
			checkDiff(res)
		}
	default:
		fatalUsage("-kind must be matmul or lu, got %q", kind)
	}
}

func checkDiff(diff float64) {
	fmt.Printf("mmserve: max residual = %.3g\n", diff)
	if diff > 1e-6 {
		fmt.Fprintln(os.Stderr, "mmserve: verification FAILED")
		os.Exit(1)
	}
	fmt.Println("mmserve: verification OK")
}
