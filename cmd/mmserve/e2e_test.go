package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/cluster"
	"repro/internal/matrix"
	"repro/internal/netmw"
	"repro/internal/store"
)

// binDir holds the binaries the e2e tests build, removed when the test
// process exits.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mmserve-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// builtBinary is one binary compiled at most once per test process.
type builtBinary struct {
	sync.Once
	bin string
	err error
}

// path compiles go build args into binDir/name on first use and returns
// the binary.
func (b *builtBinary) path(t *testing.T, name string, args ...string) string {
	t.Helper()
	b.Do(func() {
		bin := filepath.Join(binDir, name)
		out, err := exec.Command("go", append([]string{"build", "-o", bin}, args...)...).CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("build %s: %v\n%s", name, err, out)
			return
		}
		b.bin = bin
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.bin
}

var raceMMServe, plainMMServe, plainMWWorker builtBinary

// mmserveBinary is mmserve race-instrumented, so the e2e tests exercise
// the server's concurrency under the detector.
func mmserveBinary(t *testing.T) string { return raceMMServe.path(t, "mmserve-race", "-race", ".") }

// mmservePlainBinary is mmserve without the detector, for tests that
// boot the server many times.
func mmservePlainBinary(t *testing.T) string { return plainMMServe.path(t, "mmserve", ".") }

// mwworkerBinary is mwworker, not race-instrumented: it runs the kernel.
func mwworkerBinary(t *testing.T) string { return plainMWWorker.path(t, "mwworker", "../mwworker") }

// checkGoroutines fails the test when goroutines it started — the
// in-process workers and clients, the server's output reader — outlive
// the server's exit: once the test's other cleanups have run, the count
// must settle back to what it was when checkGoroutines was called,
// within a bounded wait. On failure every stack is dumped, so a leaked
// reader fails here instead of surfacing in a soak.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines left after the server exited, %d before the test started:\n%s",
					runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// waitCond polls f until it returns true, failing the test after a
// minute.
func waitCond(t *testing.T, what string, f func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !f(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serverProc is one running mmserve process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	out  strings.Builder
	mu   sync.Mutex
	done chan error
}

// startServer launches mmserve with the given extra flags and waits for
// its "listening on" line to learn the bound address.
func startServer(t *testing.T, bin string, args ...string) *serverProc {
	t.Helper()
	p := &serverProc{done: make(chan error, 1)}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = os.Stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "mmserve: listening on "); ok {
				addrCh <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, stdout)
		p.done <- p.cmd.Wait()
	}()
	select {
	case p.addr = <-addrCh:
	case err := <-p.done:
		t.Fatalf("mmserve exited before listening: %v\noutput:\n%s", err, p.output())
	case <-time.After(time.Minute):
		p.cmd.Process.Kill()
		t.Fatal("mmserve never reported its listen address")
	}
	return p
}

func (p *serverProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// e2eInputs builds one deterministic matmul job and its naive oracle.
func e2eInputs(n, q int, seed int64) (c, a, b *matrix.Blocked, ref *matrix.Dense) {
	ad, bd, cd := matrix.NewDense(n, n), matrix.NewDense(n, n), matrix.NewDense(n, n)
	matrix.DeterministicFill(ad, seed)
	matrix.DeterministicFill(bd, seed+1)
	matrix.DeterministicFill(cd, seed+2)
	ref = cd.Clone()
	matrix.MulNaive(ref, ad, bd)
	return matrix.Partition(cd, q), matrix.Partition(ad, q), matrix.Partition(bd, q), ref
}

// TestE2EKillMasterMidJob is the acceptance scenario for the durable
// control plane: an mmserve process with a journal takes three keyed
// jobs, is SIGKILLed while chunks are mid-flight, and a fresh process
// over the same store directory — same address, same workers redialing,
// same clients retrying the same keys — finishes all three jobs
// bit-exact against the naive oracle, with the journal showing every
// chunk committed exactly once.
func TestE2EKillMasterMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e: skipped in -short")
	}
	bin := mmserveBinary(t)
	checkGoroutines(t)
	storeDir := t.TempDir()

	srv1 := startServer(t, bin, "-addr", "127.0.0.1:0", "-store", storeDir,
		"-hb-timeout", "1h", "-retry-backoff", "1ms")
	addr := srv1.addr

	// Workers slow enough (Spin) that three 36-task jobs stay in flight
	// for hundreds of milliseconds — a wide window to kill the master in.
	for i := 0; i < 3; i++ {
		go netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
			Addr: addr, Name: fmt.Sprintf("e%d", i), Memory: 512, Cores: 1,
			Spin: time.Millisecond, HeartbeatEvery: 50 * time.Millisecond,
			Reconnect: 2000, Backoff: 2 * time.Millisecond,
		})
	}

	type jobIn struct {
		c, a, b *matrix.Blocked
		ref     *matrix.Dense
	}
	jobs := make([]jobIn, 3)
	for i := range jobs {
		c, a, b, ref := e2eInputs(96, 16, int64(100+i)) // 6×6 grid, µ=1 → 36 tasks
		jobs[i] = jobIn{c, a, b, ref}
	}
	opts := netmw.SubmitOptions{
		Retries: 500, Backoff: 5 * time.Millisecond,
		Timeout: time.Minute,
	}
	errs := make(chan error, len(jobs))
	for i := range jobs {
		go func(i int) {
			o := opts
			o.Key = uint64(9000 + i)
			errs <- netmw.SubmitMatMulDurable(addr, jobs[i].c, jobs[i].a, jobs[i].b, 1, o)
		}(i)
	}

	// Watch the journal (read-only, live-writer-safe) until several
	// chunks have committed with no job finished, then SIGKILL.
	waitCond(t, "mid-job progress in the journal", func() bool {
		chunks, done, err := cluster.ReplayChunkCommits(storeDir)
		if err == nil && done > 0 {
			t.Logf("a job finished before the kill (chunks=%d done=%d); killing anyway", len(chunks), done)
			return true
		}
		return err == nil && len(chunks) >= 5
	})
	if err := srv1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-srv1.done // SIGKILL reaped; the port is free

	// Restart over the same journal on the same address. The workers'
	// jittered-backoff redials and the clients' keyed resubmissions do
	// the rest.
	srv2 := startServer(t, bin, "-addr", addr, "-store", storeDir,
		"-hb-timeout", "1h", "-retry-backoff", "1ms")
	for i := 0; i < len(jobs); i++ {
		if err := <-errs; err != nil {
			t.Fatalf("durable submission did not survive the master kill: %v\nrestart output:\n%s",
				err, srv2.output())
		}
	}
	for i, j := range jobs {
		if d := j.c.Assemble().MaxDiff(j.ref); d != 0 {
			t.Fatalf("job %d after master restart: max |C - ref| = %g, want bit-exact", i, d)
		}
	}
	if !strings.Contains(srv2.output(), "recovered") {
		t.Fatalf("restarted master did not report recovery:\n%s", srv2.output())
	}

	// Zero duplicate task execution: every chunk commit surviving in the
	// journal is a unique (job, seq), and no block is committed twice,
	// under one seq or two.
	chunks, _, err := cluster.ReplayChunkCommits(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	blocks := make(map[[3]int]bool)
	for _, ch := range chunks {
		k := [2]int{int(ch.Job), ch.Seq}
		if seen[k] {
			t.Fatalf("chunk %d/%d committed twice across the restart", ch.Job, ch.Seq)
		}
		seen[k] = true
		for i := ch.I0; i < ch.I0+ch.Rows; i++ {
			for j := ch.J0; j < ch.J0+ch.Cols; j++ {
				if b := [3]int{int(ch.Job), i, j}; blocks[b] {
					t.Fatalf("block (%d, %d) of job %d committed twice across the restart", i, j, ch.Job)
				} else {
					blocks[b] = true
				}
			}
		}
	}

	srv2.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-srv2.done:
	case <-time.After(time.Minute):
		srv2.cmd.Process.Kill()
		t.Fatal("restarted master did not exit on SIGTERM")
	}

	// The whole journal — the restart's boot snapshot, which freed every
	// block not committed before the kill, and the chunk records since,
	// each a claim on blocks that must still be free — recovers all
	// three jobs Done.
	jn, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	cl := cluster.New(cluster.Config{Log: cluster.NewStoreLog(jn)})
	defer cl.Close()
	if _, err := cl.Recover(); err != nil {
		t.Fatalf("recovering the finished journal: %v", err)
	}
	if js := cl.Jobs(); len(js) != len(jobs) {
		t.Fatalf("the finished journal holds %d jobs, want %d", len(js), len(jobs))
	}
	for _, js := range cl.Jobs() {
		if js.State != cluster.Done {
			t.Fatalf("job %d recovers from the finished journal %v (%v)", js.ID, js.State, js.Err)
		}
	}
}

// TestE2ESigtermDrainsRunningJob: SIGTERM mid-job must drain — the
// running job finishes and its client gets the result — then exit
// cleanly with the drain narrated in the status output.
func TestE2ESigtermDrainsRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e: skipped in -short")
	}
	bin := mmserveBinary(t)
	checkGoroutines(t)
	storeDir := t.TempDir()
	srv := startServer(t, bin, "-addr", "127.0.0.1:0", "-store", storeDir,
		"-hb-timeout", "1h", "-drain-timeout", "1m")
	addr := srv.addr

	go netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
		Addr: addr, Name: "d0", Memory: 512, Cores: 1,
		Spin: time.Millisecond, HeartbeatEvery: 50 * time.Millisecond,
		Reconnect: 100, Backoff: 2 * time.Millisecond,
	})

	c, a, b, ref := e2eInputs(96, 16, 7)
	errCh := make(chan error, 1)
	go func() {
		errCh <- netmw.SubmitMatMulDurable(addr, c, a, b, 1, netmw.SubmitOptions{
			Key: 4242, Timeout: time.Minute,
		})
	}()

	// SIGTERM once the job is demonstrably mid-flight.
	waitCond(t, "progress in the journal", func() bool {
		chunks, done, err := cluster.ReplayChunkCommits(storeDir)
		return err == nil && (len(chunks) >= 3 || done > 0)
	})
	srv.cmd.Process.Signal(syscall.SIGTERM)

	if err := <-errCh; err != nil {
		t.Fatalf("client should have gotten its result through the drain, got: %v\noutput:\n%s",
			err, srv.output())
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("drained job result: max |C - ref| = %g", d)
	}
	select {
	case err := <-srv.done:
		if err != nil {
			t.Fatalf("mmserve exited non-zero after drain: %v\n%s", err, srv.output())
		}
	case <-time.After(time.Minute):
		srv.cmd.Process.Kill()
		t.Fatal("mmserve did not exit after draining")
	}
	out := srv.output()
	if !strings.Contains(out, "draining") {
		t.Fatalf("no drain narration in output:\n%s", out)
	}
	if !strings.Contains(out, "1 jobs done, 0 failed") {
		t.Fatalf("drain did not finish the running job:\n%s", out)
	}
}

// TestFreshBootsTightMemory is the paper's m = 8 cell on real
// processes: ten fresh mmserve boots, each served by one mwworker that
// advertises 1 MiB at q = 128 — 8 blocks — and each running one
// n = 1024, µ = 1 product, which must be bit-exact against one
// reference computed once. The first boot runs the race-instrumented
// server, the other nine the plain one.
func TestFreshBootsTightMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e: skipped in -short")
	}
	raced, plain, worker := mmserveBinary(t), mmservePlainBinary(t), mwworkerBinary(t)
	const n, q = 1024, 128
	ad, bd, cd := matrix.NewDense(n, n), matrix.NewDense(n, n), matrix.NewDense(n, n)
	matrix.DeterministicFill(ad, 41)
	matrix.DeterministicFill(bd, 42)
	matrix.DeterministicFill(cd, 43)
	// The packed kernel accumulates every element in MulNaive's
	// ascending-k FMA chain (the blas tests pin it bit-identical to the
	// reference loop) in a fraction of the textbook loop's seconds.
	ref := cd.Clone()
	blas.GemmBlocked(n, n, n, ad.Data, n, bd.Data, n, ref.Data, n)
	a, b := matrix.Partition(ad, q), matrix.Partition(bd, q)
	for boot := 0; boot < 10; boot++ {
		bin := plain
		if boot == 0 {
			bin = raced
		}
		srv := startServer(t, bin, "-addr", "127.0.0.1:0")
		w := exec.Command(worker, "-addr", srv.addr, "-name", "m8", "-mem", "1", "-q", "128", "-cores", "1",
			"-hb", "1s", "-reconnect", "0")
		var wout strings.Builder
		w.Stdout, w.Stderr = &wout, &wout
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		c := matrix.Partition(cd.Clone(), q)
		err := netmw.SubmitMatMulTCP(srv.addr, c, a, b, 1, 2*time.Minute)
		srv.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-srv.done:
		case <-time.After(time.Minute):
			srv.cmd.Process.Kill()
			t.Fatalf("boot %d: mmserve did not exit on SIGTERM", boot)
		}
		w.Process.Kill()
		w.Wait()
		if err != nil {
			t.Fatalf("boot %d: submit: %v\nserver:\n%s\nworker:\n%s", boot, err, srv.output(), wout.String())
		}
		if d := c.Assemble().MaxDiff(ref); d != 0 {
			t.Fatalf("boot %d: max |C - ref| = %g, want bit-exact", boot, d)
		}
	}
}

// TestServeFlagsRefused: serve flags that would otherwise be read as
// something else — a non-positive chunk target (silently the 250 ms
// default) or a negative retry backoff (silently none) — are refused
// with a usage error before anything listens.
func TestServeFlagsRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e: skipped in -short")
	}
	bin := mmserveBinary(t)
	for _, args := range [][]string{
		{"-chunk-target", "0"},
		{"-chunk-target", "-1s"},
		{"-retry-backoff", "-1ms"},
	} {
		out, err := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("mmserve %v: %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), args[0]+" must be") {
			t.Fatalf("mmserve %v did not name the flag:\n%s", args, out)
		}
	}
}
