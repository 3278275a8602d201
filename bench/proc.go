//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one mmserve or mwworker process. Each runs in its own
// process group, which every exit path of the bench kills and reaps;
// Pdeathsig covers a kill -9 of the bench itself where the kernel
// honours it.
type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped and its output drained

	mu  sync.Mutex
	out strings.Builder
}

// children tracks every live child and temp dir for the signal handler.
var children = struct {
	sync.Mutex
	procs map[*child]struct{}
	dirs  map[string]struct{}
}{procs: make(map[*child]struct{}), dirs: make(map[string]struct{})}

// cleanupOnSignal kills every child and removes every temp dir when the
// bench is interrupted, then exits.
func cleanupOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "bench: %v: killing children\n", s)
		children.Lock()
		var procs []*child
		for c := range children.procs {
			procs = append(procs, c)
		}
		children.Unlock()
		for _, c := range procs {
			c.kill() // returns once the process is reaped
		}
		children.Lock()
		for d := range children.dirs {
			os.RemoveAll(d)
		}
		os.Exit(130)
	}()
}

// tempDir makes a directory that is removed on every exit path.
func tempDir(parent, pattern string) (string, error) {
	d, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	children.Lock()
	children.dirs[d] = struct{}{}
	children.Unlock()
	return d, nil
}

func removeTempDir(d string) {
	os.RemoveAll(d)
	children.Lock()
	delete(children.dirs, d)
	children.Unlock()
}

// spawn starts bin with its standard output and error captured. onLine,
// when set, sees each output line as it arrives.
func spawn(name, bin string, onLine func(string), args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	children.Lock()
	err = c.cmd.Start()
	if err == nil {
		children.procs[c] = struct{}{}
	}
	children.Unlock()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.out.WriteString(line + "\n")
			c.mu.Unlock()
			if onLine != nil {
				onLine(line)
			}
		}
		io.Copy(io.Discard, pr)
		pr.Close()
		c.cmd.Wait()
		children.Lock()
		delete(children.procs, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait reports whether the process exited by itself, with status 0,
// within d.
func (c *child) wait(d time.Duration) error {
	select {
	case <-c.done:
	case <-time.After(d):
		return fmt.Errorf("%s (pid %d) still running after %v", c.name, c.pid(), d)
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("%s: %v\n%s", c.name, c.cmd.ProcessState, c.output())
	}
	return nil
}

// kill ends the child's whole process group and reaps it.
func (c *child) kill() {
	syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
}

// cpuTime is utime+stime of a live child.
func (c *child) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// peakRSSMiB is VmHWM of a live child.
func (c *child) peakRSSMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.pid()) + "/status")
	if err != nil {
		return 0, false
	}
	kib, ok := parseVmHWM(string(b))
	return float64(kib) / 1024, ok
}

// prefault maps, touches and unmaps the given amount of fresh anonymous
// memory. On a lazily backed guest the first touch of a page is several
// times dearer than later ones; paying for it here, before the first
// boot, keeps it out of the timed window of the first runs on a fresh
// host.
func prefault(mib int) error {
	b, err := syscall.Mmap(-1, 0, mib<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("prefault %d MiB: %w", mib, err)
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	return syscall.Munmap(b)
}
