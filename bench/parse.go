//go:build linux

package main

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux port Go supports; reading it properly needs
// sysconf and therefore cgo.
const clockTick = 100

// parseProcStat returns utime+stime of /proc/<pid>/stat. The command
// name (field 2) may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseVmHWM returns the peak resident set in KiB from /proc/<pid>/status.
func parseVmHWM(status string) (kib uint64, ok bool) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, found := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !found {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, false
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// parseHumanBytes inverts mmserve's humanBytes ("3.00 MiB", "768 B").
func parseHumanBytes(num, unit string) (float64, bool) {
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, false
	}
	switch unit {
	case "B":
		return v, true
	case "KiB":
		return v * (1 << 10), true
	case "MiB":
		return v * (1 << 20), true
	case "GiB":
		return v * (1 << 30), true
	}
	return 0, false
}

// serveStatus is what mmserve prints on shutdown, as far as the
// benchmark reads it. Each has* flag says the line was there: a missing
// line leaves its metrics absent, it does not make them 0.
type serveStatus struct {
	addr string // from the "listening on" line

	hasShutdown                                 bool
	jobsDone, jobsFailed, workersLost, requeues int

	hasVerify   bool
	verifyTiles int
	verifyTime  time.Duration

	workers []serveWorkerLine

	hasFleet                  bool
	cacheSkipped, cacheBlocks int
}

// serveWorkerLine is one "mmserve: worker ..." status line.
type serveWorkerLine struct {
	name            string
	tasks           int
	hasWire         bool
	wireOut, wireIn float64 // bytes, as rounded by humanBytes
}

var (
	reListening = regexp.MustCompile(`^mmserve: listening on (\S+)`)
	reShutdown  = regexp.MustCompile(`^mmserve: shutting down — (\d+) jobs done, (\d+) failed \(\d+ quarantined\), (\d+) workers lost, (\d+) requeues`)
	reVerify    = regexp.MustCompile(`^mmserve: verification: (\d+) tiles checked in (\S+),`)
	reWorker    = regexp.MustCompile(`^mmserve: worker (\S+)\s+\S+\s+tasks=(\d+)`)
	reWire      = regexp.MustCompile(` wire=([0-9.]+) (\S+) out/([0-9.]+) (\S+) in`)
	reFleet     = regexp.MustCompile(`^mmserve: fleet total: (\d+) of (\d+) operand blocks served from worker caches`)
	reWorkerEnd = regexp.MustCompile(`^mwworker: (\S+) served (\d+) tasks, (\d+) block updates over (\d+) sessions`)
)

func atoi(s string) int {
	v, _ := strconv.Atoi(s) // callers pass \d+ captures
	return v
}

// parseServeOutput reads everything mmserve wrote to its standard output.
func parseServeOutput(out string) serveStatus {
	var st serveStatus
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if m := reListening.FindStringSubmatch(line); m != nil {
			st.addr = m[1]
		} else if m := reShutdown.FindStringSubmatch(line); m != nil {
			st.hasShutdown = true
			st.jobsDone, st.jobsFailed, st.workersLost, st.requeues = atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])
		} else if m := reVerify.FindStringSubmatch(line); m != nil {
			if d, err := time.ParseDuration(m[2]); err == nil {
				st.hasVerify = true
				st.verifyTiles, st.verifyTime = atoi(m[1]), d
			}
		} else if m := reWorker.FindStringSubmatch(line); m != nil {
			wl := serveWorkerLine{name: m[1], tasks: atoi(m[2])}
			if wm := reWire.FindStringSubmatch(line); wm != nil {
				out, ok1 := parseHumanBytes(wm[1], wm[2])
				in, ok2 := parseHumanBytes(wm[3], wm[4])
				if ok1 && ok2 {
					wl.hasWire, wl.wireOut, wl.wireIn = true, out, in
				}
			}
			st.workers = append(st.workers, wl)
		} else if m := reFleet.FindStringSubmatch(line); m != nil {
			st.hasFleet = true
			st.cacheSkipped, st.cacheBlocks = atoi(m[1]), atoi(m[2])
		}
	}
	return st
}

// workerExit is mwworker's exit line.
type workerExit struct {
	name                     string
	tasks, updates, sessions int
}

func parseWorkerOutput(out string) (workerExit, bool) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if m := reWorkerEnd.FindStringSubmatch(sc.Text()); m != nil {
			return workerExit{m[1], atoi(m[2]), atoi(m[3]), atoi(m[4])}, true
		}
	}
	return workerExit{}, false
}

// parseEstablished counts ESTABLISHED connections whose local end is
// the given port, from /proc/net/tcp. Only workers hold connections to
// a freshly booted mmserve, so this is how set-up learns from outside
// the program that the whole fleet has dialled in.
func parseEstablished(procNetTCP string, port int) int {
	want := fmt.Sprintf(":%04X", port)
	n := 0
	sc := bufio.NewScanner(strings.NewReader(procNetTCP))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// sl local_address rem_address st ...; state 01 is ESTABLISHED.
		if len(f) > 3 && strings.HasSuffix(f[1], want) && f[3] == "01" {
			n++
		}
	}
	return n
}

// fsTypeOf returns the filesystem type of the longest mount point in
// /proc/mounts that contains path.
func fsTypeOf(procMounts, path string) string {
	best, fstype := "", "unknown"
	sc := bufio.NewScanner(strings.NewReader(procMounts))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		inside := path == mp || mp == "/" || strings.HasPrefix(path, mp+"/")
		if inside && len(mp) > len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}
