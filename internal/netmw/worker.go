package netmw

import (
	"fmt"
	"net"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	Addr     string // master address
	Memory   int    // advertised capacity in blocks
	StageCap int    // update sets pre-requested (1 or 2)
	// Prefetch double-buffers chunks: the worker requests its next C
	// chunk as soon as the current one arrives, so the transfer overlaps
	// the compute. Doubles the resident-chunk memory.
	Prefetch bool
	// Cores is the kernel parallelism (goroutines sharding each update's
	// block loop). 0 means one shard per core (GOMAXPROCS) — a worker
	// process owns its machine. Results are bit-identical at any value.
	Cores   int
	Timeout time.Duration
}

// WorkerReport summarizes one worker's session.
type WorkerReport struct {
	Chunks  int
	Updates int64
	// CacheHits counts operand blocks served from the worker-resident
	// cache instead of the wire; BytesSaved is the payload volume those
	// hits avoided.
	CacheHits  int64
	BytesSaved int64
	// Flushed counts C blocks returned through flush manifests instead
	// of per-chunk results (the single-flush result path).
	Flushed int64
}

// maxWireDim caps every wire-declared dimension (blocks per chunk side,
// block size q, step counts). Any legal message under maxPayload stays
// far below it, and the cap keeps hostile headers from overflowing the
// size arithmetic below or provoking geometry-sized allocations for
// bytes that never arrive.
const maxWireDim = 1 << 15

// checkGeometry validates a wire-declared chunk geometry.
func checkGeometry(rows, cols, q int) error {
	if rows < 1 || cols < 1 || rows > maxWireDim || cols > maxWireDim {
		return fmt.Errorf("netmw: bad chunk geometry %dx%d blocks", rows, cols)
	}
	if q < 1 || q > maxWireDim {
		return fmt.Errorf("netmw: bad block size q=%d", q)
	}
	return nil
}

// RunWorker connects to the master and serves until it receives Bye. It
// is a thin shell over the engine: a TCP transport (framing and pooled
// payload decode) under engine.RunWorker, which implements the demand
// protocol — request a chunk when idle, pre-request StageCap update
// sets per chunk and one more as each is consumed, then return the
// chunk and request the next. With Prefetch the engine pipelines two
// chunks, so the next transfer overlaps the current compute.
func RunWorker(cfg WorkerConfig) (WorkerReport, error) {
	if cfg.StageCap < 1 {
		cfg.StageCap = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.Timeout)
	if err != nil {
		return WorkerReport{}, fmt.Errorf("netmw: dial %s: %w", cfg.Addr, err)
	}
	defer conn.Close()
	tr := newWorkerTransport(conn, nil, nil, engine.NewBlockPool())
	if err := tr.sendHello(cfg.Memory); err != nil {
		return WorkerReport{}, err
	}
	slots := 1
	if cfg.Prefetch {
		slots = 2
	}
	rep, err := engine.RunWorker(tr, engine.WorkerConfig{
		StageCap: cfg.StageCap, Slots: slots,
		Cores:       blas.DefaultWorkers(cfg.Cores),
		PullAssigns: true, PullSets: true, PullResults: true,
		Pool: tr.pool,
	})
	return WorkerReport{
		Chunks: rep.Assignments, Updates: rep.Updates,
		CacheHits: rep.CacheHits, BytesSaved: rep.BytesSaved,
		Flushed: rep.Flushed,
	}, err
}
