// Command mwworker runs one distributed matrix-product worker. It joins
// a long-running mmserve scheduler: registering under a stable name,
// heartbeating, serving tasks from many concurrent jobs, and
// reconnecting (re-registering) when the connection drops. A single
// product is a job submitted to that scheduler (mmserve -submit).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/blas"
	"repro/internal/netmw"
	"repro/internal/platform"
)

func fatalUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mwworker: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7071", "mmserve address")
	memMB := flag.Int("mem", 64, "memory budget in MiB to advertise")
	q := flag.Int("q", 64, "block size used to convert the budget to blocks")
	cores := flag.Int("cores", 0, "kernel goroutines per block-update sweep (0 = one per core)")
	slots := flag.Int("slots", 2, "tasks pipelined concurrently (1 disables task prefetch)")
	// Accepted and ignored: serving an mmserve scheduler is the only mode.
	flag.Bool("cluster", true, "accepted for compatibility; has no effect")
	name := flag.String("name", "", "stable worker name (default host:pid)")
	hbEvery := flag.Duration("hb", 2*time.Second, "heartbeat cadence")
	reconnect := flag.Int("reconnect", 10, "reconnect attempts after a connection loss")
	backoff := flag.Duration("backoff", time.Second, "base pause between reconnect attempts (doubles per failed session, up to 16×)")
	flag.Parse()

	if flag.NArg() > 0 {
		fatalUsage("unexpected arguments: %v", flag.Args())
	}
	if *addr == "" {
		fatalUsage("-addr must not be empty")
	}
	if *memMB < 1 {
		fatalUsage("-mem must be ≥ 1 MiB, got %d", *memMB)
	}
	if *q < 1 {
		fatalUsage("-q must be ≥ 1, got %d", *q)
	}
	if *cores < 0 {
		fatalUsage("-cores must be ≥ 0, got %d", *cores)
	}
	if *slots < 1 {
		fatalUsage("-slots must be ≥ 1, got %d", *slots)
	}
	if *reconnect < 0 {
		fatalUsage("-reconnect must be ≥ 0, got %d", *reconnect)
	}
	if *backoff < 0 {
		fatalUsage("-backoff must be ≥ 0, got %v", *backoff)
	}
	if *hbEvery <= 0 {
		// A silent worker is indistinguishable from a dead one: the
		// server's expiry sweep would declare an idle beaconless worker
		// lost, so heartbeats are mandatory.
		fatalUsage("-hb must be positive, got %v", *hbEvery)
	}
	m := platform.MemoryBlocks(int64(*memMB)<<20, *q)
	if m < 1 {
		fatalUsage("-mem %d MiB holds no %d×%d blocks", *memMB, *q, *q)
	}

	wn := *name
	if wn == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		wn = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	rep, err := netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
		Addr: *addr, Name: wn, Memory: m, Slots: *slots, Cores: *cores,
		HeartbeatEvery: *hbEvery, Reconnect: *reconnect, Backoff: *backoff,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mwworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mwworker: %s served %d tasks, %d block updates over %d sessions, kernel=%s\n",
		wn, rep.Tasks, rep.Updates, rep.Sessions, blas.KernelName())
	fmt.Printf("mwworker: operand cache: %d blocks served locally, %.1f MiB never re-fetched\n",
		rep.CacheHits, float64(rep.BytesSaved)/(1<<20))
	fmt.Printf("mwworker: memory: peak %d of %d advertised blocks held, %d block buffers allocated\n", rep.PeakBlocks, m, rep.FreshBlocks)
}
