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

	"repro/internal/cluster"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

// buildOnce compiles the mmserve binary (race-instrumented, so the e2e
// exercises the server's concurrency under the detector) once per test
// process.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func mmserveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mmserve-e2e-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "mmserve")
		out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = fmt.Errorf("build: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

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
			Reconnect: 2000, Backoff: 2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
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
		Retries: 500, Backoff: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
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
	// journal is a unique (job, seq).
	chunks, _, err := cluster.ReplayChunkCommits(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]bool)
	for _, ch := range chunks {
		k := [2]int{int(ch.Job), ch.Seq}
		if seen[k] {
			t.Fatalf("chunk %d/%d committed twice across the restart", ch.Job, ch.Seq)
		}
		seen[k] = true
	}

	srv2.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-srv2.done:
	case <-time.After(time.Minute):
		srv2.cmd.Process.Kill()
		t.Fatal("restarted master did not exit on SIGTERM")
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
