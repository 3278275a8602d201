package netmw

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// waitCond polls f until it returns true or the deadline passes; on
// timeout it dumps the cluster state for post-mortem.
func waitCond(t *testing.T, cl *cluster.Cluster, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !f() {
		if time.Now().After(deadline) {
			st := cl.ClusterStats()
			t.Logf("stats: %+v", st)
			for _, w := range cl.Workers() {
				t.Logf("worker %s: dead=%v inflight=%d done=%d dirty=%d profile=%+v",
					w.ID, w.Dead, w.Inflight, w.Done, w.DirtyBlocks, w.Profile)
			}
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestClusterTCPSpeculationKillStraggler is the end-to-end straggler
// scenario over real sockets: spun-down workers earn slow profiles, a
// fast worker drains the rest of the grid and speculatively duplicates
// a straggler's in-flight chunk, and both stragglers are then killed
// while the race is on. The duplicate must win, the dead incarnations'
// late traffic must be refused through the stale-epoch paths, and the
// assembled result must be bit-exact.
//
// The speculative window near the job's end is real wall-clock timing
// (spin-emulated heterogeneity on whatever cores CI grants), so a run
// can finish before the window opens; the scenario is retried a couple
// of times before that counts as a failure.
func TestClusterTCPSpeculationKillStraggler(t *testing.T) {
	for attempt := 1; ; attempt++ {
		if trySpeculationScenario(t) {
			return
		}
		if attempt == 3 {
			t.Fatal("no speculative window opened in 3 attempts")
		}
		t.Logf("attempt %d: job drained before a speculative window opened; retrying", attempt)
	}
}

// speculationRace boots the straggler scenario up to the moment a
// speculative duplicate is in flight: two spun-down stragglers with slow
// profiles, one fast worker that drains the grid and duplicates a
// straggler's chunk. ok is false when the job drained before a
// speculative window opened (the job is then already waited for).
// tap, when set, sees every Result a worker session delivers before the
// feeder does.
func speculationRace(t *testing.T, tap func(*cluster.Cluster, *engine.Result)) (
	cl *cluster.Cluster, c *matrix.Blocked, ref *matrix.Dense, done chan error, ok bool) {
	// MaxMu pins every chunk to 1×1: adaptive shaping would otherwise
	// equalize per-chunk wall time across speeds (its whole job), which
	// closes the idle window speculation needs. With fixed-size chunks
	// the fast worker drains the grid and must then race the stragglers.
	cl = cluster.New(cluster.Config{
		HeartbeatTimeout: time.Hour,
		Adaptive: cluster.AdaptiveConfig{
			Enabled:           true,
			ChunkTarget:       100 * time.Millisecond,
			SpeculationFactor: 1.05,
			MaxMu:             1,
		},
	})
	cfg := ClusterServerConfig{Addr: "127.0.0.1:0"}
	if tap != nil {
		cfg.WrapTransport = func(name string, tr engine.Transport) engine.Transport {
			return resultTap{tr, func(res *engine.Result) { tap(cl, res) }}
		}
	}
	srv, err := ServeCluster(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	addr := srv.Addr()

	c, a, b, ref := matmulInputs(t, 32, 16, 32, 4, 77) // 8×8 grid of 4×4 blocks, T = 4

	done = make(chan error, 1)
	go func() { done <- SubmitMatMulTCP(addr, c, a, b, 1, time.Minute) }()

	// Two stragglers join alone first: 100ms of spin per block update
	// (~10 updates/s), so each 1×1 chunk takes ~400ms. Two of them make
	// the end-of-job race likely — speculation only misses when both
	// happen to be moments from finishing as the grid runs dry.
	for _, name := range []string{"slow1", "slow2"} {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: 64, Spin: 100 * time.Millisecond,
		})
	}
	waitCond(t, cl, "straggler profiles", func() bool {
		profiled := 0
		for _, w := range cl.Workers() {
			if w.Profile.UpdatesPerSec > 0 {
				profiled++
			}
		}
		return profiled == 2
	})

	// The fast worker is 20× quicker; once the cutter runs dry it goes
	// idle and the scheduler offers it a straggler's in-flight chunk
	// (~20ms to duplicate versus ~400ms to wait out).
	go RunClusterWorker(ClusterWorkerConfig{
		Addr: addr, Name: "fast", Memory: 64, Spin: 5 * time.Millisecond,
	})
	missed := false
	waitCond(t, cl, "speculative dispatch", func() bool {
		st := cl.ClusterStats()
		if st.Speculations > 0 {
			return true
		}
		// Job over without a duplicate: the window never opened.
		missed = st.JobsRunning == 0 && st.JobsQueued == 0
		return missed
	})
	if missed {
		<-done
		return cl, c, ref, done, false
	}
	return cl, c, ref, done, true
}

func trySpeculationScenario(t *testing.T) bool {
	cl, c, ref, done, ok := speculationRace(t, nil)
	if !ok {
		return false
	}

	// Kill both stragglers mid-race: the duplicated chunk's holder dies
	// while the duplicate is computing, and the bystander straggler's
	// chunk must be re-cut and recomputed. Everything the dead
	// incarnations send from here on must bounce off the epoch checks.
	cl.WorkerLost("slow1")
	cl.WorkerLost("slow2")

	if err := <-done; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result not bit-exact after speculation + kill: max diff %g", d)
	}
	st := cl.ClusterStats()
	if st.Speculations < 1 || st.SpecWins < 1 {
		t.Fatalf("speculations = %d, wins = %d; want both ≥ 1", st.Speculations, st.SpecWins)
	}
	if st.WorkersLost < 2 {
		t.Fatalf("workers lost = %d, want 2", st.WorkersLost)
	}
	if st.JobsDone != 1 {
		t.Fatalf("jobs done = %d, want 1", st.JobsDone)
	}
	return true
}

// resultTap reports every Result a worker session delivers, before the
// feeder sees it.
type resultTap struct {
	engine.Transport
	seen func(*engine.Result)
}

func (rt resultTap) Recv() (engine.Msg, error) {
	m, err := rt.Transport.Recv()
	if res, ok := m.(*engine.Result); ok && err == nil {
		rt.seen(res)
	}
	return m, err
}

// TestClusterTCPSpeculationLoserOutlivesJob is the release half of the
// straggler scenario: nobody is killed, so the duplicate wins and the
// job finishes — its client answered, its result forgotten — while the
// losing straggler is still mid-stream on the revoked copy. The
// finished job must keep every matrix until that loser reports (its
// remaining set requests are served from them), release them all once it
// has, and the loser's session must survive to serve again.
func TestClusterTCPSpeculationLoserOutlivesJob(t *testing.T) {
	for attempt := 1; ; attempt++ {
		if trySpeculationLoserScenario(t) {
			return
		}
		if attempt == 3 {
			t.Fatal("no loser outlived its job in 3 attempts")
		}
		t.Logf("attempt %d: no straggler was mid-stream when the job finished; retrying", attempt)
	}
}

func trySpeculationLoserScenario(t *testing.T) bool {
	var mu sync.Mutex
	lateResults, early := 0, 0
	// A Result arriving for a job that is already done is a loser letting
	// go — and it has not let go until the feeder hands this Result to
	// the scheduler, after Recv returns. Until then the job is pinned.
	cl, c, ref, done, ok := speculationRace(t, func(cl *cluster.Cluster, res *engine.Result) {
		st, err := cl.JobStatus(cluster.JobID(res.ID.A))
		if err != nil || st.State != cluster.Done {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		lateResults++
		if st.Retained != 3 {
			early++
		}
	})
	if !ok {
		return false
	}
	if err := <-done; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result not bit-exact after speculation: max diff %g", d)
	}
	waitReleased(t, cl, func(cluster.Status) int { return 0 })
	mu.Lock()
	late, tooEarly := lateResults, early
	mu.Unlock()
	if late == 0 {
		return false // every straggler had reported before the job finished
	}
	if tooEarly != 0 {
		t.Fatalf("%d of %d losers found their job's matrices released before they let go", tooEarly, late)
	}
	st := cl.ClusterStats()
	if st.SpecWins < 1 || st.WorkersLost != 0 {
		t.Fatalf("spec wins = %d, workers lost = %d; want a win and no loss", st.SpecWins, st.WorkersLost)
	}
	for _, w := range cl.Workers() {
		if w.Dead || w.Sessions != 1 {
			t.Fatalf("worker %s: dead=%v sessions=%d; every session must survive the release", w.ID, w.Dead, w.Sessions)
		}
	}
	return true
}
