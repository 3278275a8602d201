package engine

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/blas"
)

// WorkerConfig configures one engine worker session.
type WorkerConfig struct {
	// StageCap is how many update sets the worker stages ahead of the
	// compute (the paper's staging buffers; 1 or 2). Minimum 1. The
	// master pushes the sets; a full stage stops the reader, and the
	// transport's back-pressure holds the rest at the master.
	StageCap int
	// Slots is how many assignments the worker pipelines: with ≥ 2 the
	// next tile streams down while the current one computes (the §5
	// overlapped layout made real). Minimum 1.
	Slots int
	// Cores shards each block-update sweep across this many kernel
	// goroutines (≤ 1 = the sequential kernel). Results are
	// bit-identical at any value.
	Cores int
	// Spin adds artificial per-block-update busy-wait so tests can
	// emulate slower processors deterministically. It runs after the
	// kernel, whichever one Cores picks, and leaves results unchanged.
	Spin time.Duration

	// Pool receives the buffers of Owned messages once they are
	// consumed; nil disables pooling.
	Pool *BlockPool

	// FailAfter is a test hook: the worker severs its transport without
	// warning when assignment FailAfter+1 arrives (0 = never) — the
	// kill-a-worker-mid-job scenario of the recovery tests.
	FailAfter int
}

// WorkerReport summarizes one worker session.
type WorkerReport struct {
	Assignments int
	Updates     int64
	// CacheHits counts operand blocks served from the worker's resident
	// cache instead of the wire; BytesSaved is the payload volume they
	// avoided (8·q² per block).
	CacheHits  int64
	BytesSaved int64
	// Flushed counts C blocks sent home in Results.
	Flushed int64
}

// RunWorker executes the worker side of the protocol until the master
// says Bye (returns nil) or the transport fails (returns the error),
// and closes the transport on the way out.
//
// The session is a two-stage pipeline: a reader goroutine stages
// incoming messages (assignments into a Slots-deep queue, update sets
// into a StageCap-deep queue) while this goroutine computes, so
// transfers overlap compute exactly as the paper's µ²+4µ layout
// reserves space for. Assignments and their update sets are pushed by
// the master, in order; the worker sends each finished assignment's
// tile home unannounced, in the Result that reports it finished (the
// paper's maximum re-use scheme, §4.1: a chunk leaves once its last
// update set is applied).
func RunWorker(tr Transport, cfg WorkerConfig) (WorkerReport, error) {
	if cfg.StageCap < 1 {
		cfg.StageCap = 1
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	var rep WorkerReport

	assigns := make(chan *Assign, cfg.Slots)
	// The reader's hand is the last staging slot: with a StageCap-1 deep
	// channel, at most StageCap sets are resident ahead of the compute.
	sets := make(chan *Set, cfg.StageCap-1)
	readErr := make(chan error, 1)
	// Every queue send also selects on quit so a session that ends while
	// the reader holds an undeliverable message (connection death with
	// full staging) reaps the reader instead of leaking it; closed on
	// every return path.
	quit := make(chan struct{})
	defer close(quit)
	go func() {
		defer close(assigns)
		defer close(sets)
		// An assignment's frame precedes its update sets, so a set
		// arriving when the announced assignments have no steps left is
		// a protocol violation — erroring here keeps a master that floods
		// unsolicited sets from wedging the session on a full staging
		// queue.
		var stepsSeen, setsSeen int64
		for {
			m, err := tr.Recv()
			if err != nil {
				readErr <- fmt.Errorf("engine: worker read: %w", err)
				return
			}
			switch m := m.(type) {
			case Bye:
				return
			case *Assign:
				stepsSeen += int64(m.Steps)
				select {
				case assigns <- m:
				case <-quit:
					return
				}
			case *Set:
				if setsSeen == stepsSeen {
					readErr <- fmt.Errorf("engine: worker got an update set with no assignment wanting one")
					return
				}
				setsSeen++
				select {
				case sets <- m:
				case <-quit:
					return
				}
			default:
				readErr <- fmt.Errorf("engine: worker got unexpected %T", m)
				return
			}
		}
	}()
	fail := func(err error) (WorkerReport, error) {
		tr.Close() // unblock the reader
		return rep, err
	}

	// The operand cache holds the session's resident A/B blocks, keyed
	// by manifest ID, in exact mirror of the master's per-session cache.
	// It lives and dies with the session: a reconnected incarnation is a
	// new session and starts cold, matching the master's fresh mirror.
	cache := newOpCache(cfg.Pool)
	defer cache.release()

	for as := range assigns {
		if cfg.FailAfter > 0 && rep.Assignments >= cfg.FailAfter {
			tr.Close() // vanish mid-job, still holding the assignment
			return rep, ErrKilled
		}
		// Expand the compacted tile before any update applies: shipped
		// blocks become owned, zero blocks materialize locally.
		if err := materializeTile(as, cfg.Pool); err != nil {
			return fail(err)
		}
		updates0 := rep.Updates
		var asNS int64
		for k := 0; k < as.Steps; k++ {
			set, ok := <-sets
			if !ok {
				select {
				case err := <-readErr:
					return rep, err
				default:
					return rep, fmt.Errorf("engine: master hung up mid-assignment")
				}
			}
			// Resolve the delta against the resident cache BEFORE the
			// update: shipped blocks pin (ownership moves to the cache),
			// manifest references fill in from residency, and the cache
			// evicts to the announced capacity in lock-step with the
			// master's mirror. Evicted buffers stay out of the pool until
			// the next resolve, so the update below may still read them.
			hits, err := cache.resolve(set)
			if err != nil {
				return fail(err)
			}
			rep.CacheHits += hits
			rep.BytesSaved += hits * int64(as.Q) * int64(as.Q) * 8
			t0 := time.Now()
			if err := applySet(as, set, cfg, &rep.Updates); err != nil {
				return fail(err)
			}
			asNS += time.Since(t0).Nanoseconds()
			releaseUncached(set, cfg.Pool)
			cfg.Pool.PutSet(set)
		}

		// The finished tile goes home in the Result, one message per
		// assignment.
		res := cfg.Pool.GetResult()
		res.ID, res.Updates, res.ComputeNS = as.ID, rep.Updates-updates0, asNS
		res.Blocks = append(res.Blocks, as.Blocks...)
		rep.Flushed += int64(len(res.Blocks))
		as.Blocks = nil
		cfg.Pool.PutAssign(as)
		if err := tr.Send(res); err != nil {
			return fail(err)
		}
		rep.Assignments++
	}
	// assigns closed: clean Bye, or reader error. Either way the session
	// is over and the worker hangs up.
	tr.Close()
	select {
	case err := <-readErr:
		return rep, err
	default:
		return rep, nil
	}
}

// RunAssign runs one assignment the way RunWorker does on one core,
// without a transport: materializeTile, then applySet for each of the
// Steps update sets feed.Set hands out, in order, recycling each into
// pool — the same validation and arithmetic. On success as.Blocks is
// the finished Rows×Cols tile, row-major, owned by the caller.
func RunAssign(as *Assign, feed Feed, pool *BlockPool) error {
	err := materializeTile(as, pool)
	var updates int64
	for k := 0; k < as.Steps && err == nil; k++ {
		var set *Set
		if set, err = feed.Set(as.ID, k); err == nil {
			err = applySet(as, set, WorkerConfig{Pool: pool}, &updates)
			releaseUncached(set, pool)
			pool.PutSet(set)
		}
	}
	return err
}

// materializeTile expands an assignment's tile in place: as.Blocks
// arrives compacted (only the CShip payloads, in row-major flag order;
// every block when CFlags is empty) and leaves as the full Rows×Cols
// tile, every block owned by the worker. CShip payloads are adopted
// (copied first when the transport shared them read-only) and CZero
// blocks are materialized as local zeros. Strict validation: flag
// count, payload count, flag values and ID range must all line up or
// the session dies.
func materializeTile(as *Assign, pool *BlockPool) error {
	want := as.Rows * as.Cols
	if len(as.CFlags) != 0 && len(as.CFlags) != want {
		return fmt.Errorf("engine: assignment carries %d C flags for a %dx%d tile",
			len(as.CFlags), as.Rows, as.Cols)
	}
	expanded := make([][]float64, 0, want)
	ship := 0
	for fi := 0; fi < want; fi++ {
		if CBlockID(as.ID.A, as.I0+fi/as.Cols, as.J0+fi%as.Cols) == 0 {
			return fmt.Errorf("engine: tile coordinates (%d,%d) of job %d overflow the block ID fields",
				as.I0+fi/as.Cols, as.J0+fi%as.Cols, as.ID.A)
		}
		f := CShip
		if len(as.CFlags) != 0 {
			f = as.CFlags[fi]
		}
		switch f {
		case CShip:
			if ship >= len(as.Blocks) {
				return fmt.Errorf("engine: assignment ships %d C payloads, flags want more", len(as.Blocks))
			}
			buf := as.Blocks[ship]
			ship++
			if !as.Owned {
				buf = pool.GetCopy(buf)
			}
			expanded = append(expanded, buf)
		case CZero:
			buf := pool.Get(as.Q * as.Q)
			for i := range buf {
				buf[i] = 0
			}
			expanded = append(expanded, buf)
		default:
			return fmt.Errorf("engine: unknown C flag %d", f)
		}
	}
	if ship != len(as.Blocks) {
		return fmt.Errorf("engine: assignment ships %d C payloads for %d CShip flags", len(as.Blocks), ship)
	}
	as.Blocks, as.Owned = expanded, true
	return nil
}

// applySet applies one update set to the resident tile: the sharded
// kernel when Cores > 1, the sequential chunk kernel otherwise (the two
// are bit-identical), then busy-waits Spin per block update, so an
// emulated slower processor reports its extra time in ComputeNS.
func applySet(as *Assign, set *Set, cfg WorkerConfig, updates *int64) error {
	rows, cols, q := as.Rows, as.Cols, as.Q
	if len(set.A) != rows || len(set.B) != cols {
		return fmt.Errorf("engine: set %d has %dx%d operands, want %dx%d",
			set.K, len(set.A), len(set.B), rows, cols)
	}
	if cfg.Cores > 1 {
		blas.ParallelUpdateChunk(as.Blocks, set.A, set.B, rows, cols, q, cfg.Cores)
	} else {
		// Chunk-level kernel: each Ai/Bj operand is packed once into
		// pooled arenas (blas.PackPool) and reused across the whole
		// rows×cols sweep, so the steady-state compute path performs no
		// per-update packing or allocation.
		blas.UpdateChunk(as.Blocks, set.A, set.B, rows, cols, q)
	}
	*updates += int64(rows) * int64(cols)
	if cfg.Spin > 0 {
		spinFor(time.Duration(rows*cols) * cfg.Spin)
	}
	return nil
}

// spinFor busy-waits to emulate extra compute cost deterministically
// (time.Sleep granularity is too coarse at block scale).
func spinFor(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
		runtime.Gosched()
	}
}
