package netmw

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/homog"
	"repro/internal/matrix"
)

// MasterConfig configures a distributed run.
type MasterConfig struct {
	Addr    string // listen address, e.g. "127.0.0.1:7070" (":0" for tests)
	Workers int    // connections to wait for
	Mu      int    // chunk side in blocks
	Timeout time.Duration
}

// MasterReport summarizes a distributed execution.
type MasterReport struct {
	Result  core.Result
	Elapsed time.Duration
	Addr    string // the actual listen address (useful with ":0")
	// Comm is the delta protocol's accounting: operand blocks shipped
	// versus served from worker-resident caches (Result.Blocks stays
	// the logical volume the paper's CCR counts).
	Comm engine.CommStats
}

// Serve runs the master: it listens, waits for cfg.Workers workers, then
// distributes C ← C + A·B with the demand-driven protocol and shuts the
// workers down. It mutates c in place.
func Serve(c, a, b *matrix.Blocked, cfg MasterConfig) (MasterReport, error) {
	if err := validate(c, a, b, cfg); err != nil {
		return MasterReport{}, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return MasterReport{}, fmt.Errorf("netmw: listen: %w", err)
	}
	return ServeListener(c, a, b, cfg, ln)
}

func validate(c, a, b *matrix.Blocked, cfg MasterConfig) error {
	if a.BR != c.BR || b.BC != c.BC || a.BC != b.BR || a.Q != b.Q || a.Q != c.Q {
		return fmt.Errorf("netmw: shape mismatch")
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("netmw: need at least one worker")
	}
	if cfg.Mu < 1 {
		return fmt.Errorf("netmw: µ must be ≥ 1")
	}
	return nil
}

// ServeListener is Serve on an already-bound listener, which lets callers
// bind to port 0 and learn the address (ln.Addr()) before the workers
// dial in. The listener is closed on return.
//
// The master is a thin shell over the engine: one TCP transport per
// accepted worker under engine.RunMaster, which serves the demand
// protocol (FIFO requests, per-worker multi-chunk queues, set routing
// to the oldest incomplete chunk) — the same engine the in-process
// runtime drives over channels.
func ServeListener(c, a, b *matrix.Blocked, cfg MasterConfig, ln net.Listener) (MasterReport, error) {
	defer ln.Close()
	if err := validate(c, a, b, cfg); err != nil {
		return MasterReport{}, err
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	rep := MasterReport{Addr: ln.Addr().String()}

	pool := engine.NewBlockPool()
	links := make([]engine.Transport, 0, cfg.Workers)
	deadline := time.Now().Add(cfg.Timeout)
	for len(links) < cfg.Workers {
		if tl, ok := ln.(*net.TCPListener); ok {
			if err := tl.SetDeadline(deadline); err != nil {
				return rep, err
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			for _, tr := range links {
				tr.Close()
			}
			return rep, fmt.Errorf("netmw: accept (have %d/%d workers): %w", len(links), cfg.Workers, err)
		}
		links = append(links, NewMasterTransport(conn, c.Q, pool))
	}

	start := time.Now()
	pr := core.Problem{R: c.BR, S: c.BC, T: a.BC, Q: a.Q}
	_, chunks := homog.ChunkGrid(pr, cfg.Mu)
	stats, err := engine.RunMaster(c, a, b, chunks, links, engine.MasterConfig{
		Timeout: cfg.Timeout, Pool: pool,
		// Close the result path: workers keep their C tiles resident and
		// flush each exactly once at job end, and all-zero C tiles ship
		// down as a flag instead of a payload.
		ResidentResults: true,
	})
	if err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)
	rep.Comm = stats.Comm
	rep.Result = core.Result{
		Algorithm: "netmw",
		Makespan:  rep.Elapsed.Seconds(),
		Enrolled:  cfg.Workers,
		Blocks:    stats.Blocks,
		Updates:   pr.Updates(),
	}
	return rep, nil
}
