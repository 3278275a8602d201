package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/blas"
)

// WorkerConfig configures one engine worker session.
type WorkerConfig struct {
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
	// PeakBlocks is the most blocks the worker held at once — in-flight
	// tiles, sets not yet applied, the operand cache and its evicted
	// buffers not yet returned: what the master keeps within its memory.
	PeakBlocks int
}

// RunWorker executes the worker side of the protocol until the master
// says Bye (returns nil) or the transport fails (returns the error),
// and closes the transport on the way out.
//
// The session is a two-stage pipeline: a reader goroutine stages
// incoming messages (assignments into a Slots-deep queue, StageDepth
// update sets ahead of the one applied) while this goroutine computes,
// so transfers overlap compute; the master's Ledger counts that
// staging. Assignments and their update sets are pushed by the master,
// in order; the worker sends each finished assignment's tile home
// unannounced, in the Result that reports it finished (the paper's
// maximum re-use scheme, §4.1: a chunk leaves once its last update set
// is applied).
func RunWorker(tr Transport, cfg WorkerConfig) (rep WorkerReport, err error) {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	// The reader adds the blocks that arrive, the compute what it returns.
	var held, peak atomic.Int64
	hold := func(n int) {
		v := held.Add(int64(n))
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
	}
	defer func() { rep.PeakBlocks = int(peak.Load()) }()

	assigns := make(chan *Assign, cfg.Slots)
	// The reader's hand is the last staging slot: with a StageDepth-1
	// deep channel, at most StageDepth sets wait ahead of the compute.
	sets := make(chan *Set, StageDepth-1)
	// dropped tells the reader that the compute has dropped the jobs an
	// assignment's Drop names: the reader waits for it before it reads
	// on, so the next sets' payloads land in the buffers the drop freed.
	dropped := make(chan struct{}, 1)
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
				hold(m.Rows * m.Cols)
				select {
				case assigns <- m:
				case <-quit:
					return
				}
				if len(m.Drop) > 0 {
					select {
					case <-dropped:
					case <-quit:
						return
					}
				}
			case *Set:
				if setsSeen == stepsSeen {
					readErr <- fmt.Errorf("engine: worker got an update set with no assignment wanting one")
					return
				}
				setsSeen++
				hold(payloads(m.A) + payloads(m.B))
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
		// Every set before this assignment has been applied and none of
		// its own: the point in the stream where the master's mirror
		// dropped the released jobs it names.
		if len(as.Drop) > 0 {
			hold(-cache.drop(as.Drop))
			dropped <- struct{}{}
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
			// the update below, which may still read them, is done.
			staged, resident := payloads(set.A)+payloads(set.B), len(cache.cache.m)
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
			cache.putEvicted()
			releaseUncached(set, cfg.Pool)
			cfg.Pool.PutSet(set)
			// Every payload the set brought is in the cache now, or gone.
			hold(len(cache.cache.m) - resident - staged)
		}

		// The finished tile goes home in the Result, one message per
		// assignment.
		res := cfg.Pool.GetResult()
		res.ID, res.Updates, res.ComputeNS = as.ID, rep.Updates-updates0, asNS
		res.Blocks = append(res.Blocks, as.Blocks...)
		as.Blocks = nil
		if err := tr.Send(res); err != nil {
			return fail(err)
		}
		hold(-as.Rows * as.Cols)
		cfg.Pool.PutAssign(as)
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
// count, payload count and flag values must all line up or the session
// dies.
func materializeTile(as *Assign, pool *BlockPool) error {
	want := as.Rows * as.Cols
	if len(as.CFlags) != 0 && len(as.CFlags) != want {
		return fmt.Errorf("engine: assignment carries %d C flags for a %dx%d tile",
			len(as.CFlags), as.Rows, as.Cols)
	}
	expanded := make([][]float64, 0, want)
	ship := 0
	for fi := 0; fi < want; fi++ {
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
			clear(buf)
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

// payloads counts the blocks of bs with a payload (nil: a cache hit).
func payloads(bs [][]float64) (n int) {
	for _, b := range bs {
		if b != nil {
			n++
		}
	}
	return n
}

// spinFor busy-waits to emulate extra compute cost deterministically
// (time.Sleep granularity is too coarse at block scale).
func spinFor(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
		runtime.Gosched()
	}
}
