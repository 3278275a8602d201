package netmw

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// resultTap reports every Result a worker session delivers, before the
// feeder sees it; seen may block, which parks the Result in Recv.
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

// stragglerRace is the straggler scenario over real sockets, made
// causal. The cluster's clock is frozen, so a task's estimated remaining
// time never runs out: whether an idle worker duplicates it depends on
// the workers' measured speeds alone, not on how fast this machine runs
// the test. Two spun-down stragglers earn slow profiles; from then on
// every Result they send is parked in the server's Recv until hold
// returns, so each is stuck holding one in-flight task. Only once both
// are stuck does a fast worker join: it drains the rest of the grid and,
// finding nothing fresh, duplicates the stuck tasks. The stragglers'
// links can be severed; a Result parked when its link is cut dies with
// the connection.
func stragglerRace(t *testing.T, hold func(*cluster.Cluster, *engine.Result)) (
	cl *cluster.Cluster, ls *links, c *matrix.Blocked, ref *matrix.Dense, done chan error) {
	checkGoroutines(t)
	cl = cluster.New(cluster.Config{
		HeartbeatTimeout: time.Hour,
		Clock:            cluster.NewManualClock(time.Unix(0, 0)),
		Adaptive: cluster.AdaptiveConfig{
			Enabled:           true,
			ChunkTarget:       100 * time.Millisecond,
			SpeculationFactor: 1.05,
		},
	})
	// Every worker advertises room for 1×1 chunks, not the Ledger of a
	// 2×2 one: adaptive shaping would otherwise hand the fast worker the
	// whole remaining grid in a few chunks.
	mem := engine.Ledger{}.Add(2, 2).Blocks() - 1
	var parking atomic.Bool
	parked := make(chan string, 16)
	ls = &links{}
	srv, err := ServeCluster(cl, ClusterServerConfig{
		Addr: "127.0.0.1:0",
		WrapTransport: func(name string, tr engine.Transport) engine.Transport {
			if name == "fast" {
				return tr
			}
			return ls.wrap(name, resultTap{tr, func(res *engine.Result) {
				if parking.Load() {
					parked <- name
					hold(cl, res)
				}
			}})
		},
	})
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

	// 20ms of spin per block update: ~80ms per 1×1 chunk, against well
	// under a millisecond on the fast worker.
	for _, name := range []string{"slow1", "slow2"} {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: mem, Spin: 20 * time.Millisecond,
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
	parking.Store(true)
	stuck := map[string]bool{}
	for len(stuck) < 2 {
		select {
		case name := <-parked:
			stuck[name] = true
		case <-time.After(30 * time.Second):
			t.Fatalf("stragglers parked a result: %v, want both", stuck)
		}
	}
	go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "fast", Memory: mem})
	return cl, ls, c, ref, done
}

// TestClusterTCPSpeculationKillStraggler: the fast worker duplicates a
// stuck straggler's chunk, and both stragglers are then killed while
// the race is on: their connections are severed, so their parked
// results die with the links. The duplicate must win and the assembled
// result must be bit-exact. The stragglers' results stay parked until
// both links are cut, so the window cannot close before a duplicate is
// in flight.
func TestClusterTCPSpeculationKillStraggler(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	cl, ls, c, ref, done := stragglerRace(t, func(*cluster.Cluster, *engine.Result) { <-release })
	t.Cleanup(unpark) // before the server's Close, which waits for the sessions

	waitCond(t, cl, "speculative dispatch", func() bool {
		return cl.ClusterStats().Speculations > 0
	})
	// Kill both stragglers mid-race: the duplicated chunk's holder dies
	// while the duplicate is computing (or just after it won), and the
	// bystander straggler's chunk must be re-cut and recomputed.
	ls.sever(t, "slow1")
	ls.sever(t, "slow2")
	unpark()
	waitCond(t, cl, "both stragglers declared lost", func() bool {
		return cl.ClusterStats().WorkersLost >= 2
	})

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
}

// TestClusterTCPSpeculationLoserOutlivesJob is the release half of the
// straggler scenario: nobody is killed, so the duplicates win and the
// job finishes — its client answered, its result forgotten — while both
// losing stragglers still hold their revoked copies, their results
// parked until the job is Done. The finished job must keep every
// matrix until a loser reports (its remaining set requests are served
// from them), release them all once both have, and the losers' sessions
// must survive to serve again.
func TestClusterTCPSpeculationLoserOutlivesJob(t *testing.T) {
	var mu sync.Mutex
	late, early := 0, 0
	// A loser has not let go until the feeder hands its Result to the
	// scheduler, after Recv returns. Until then the job is pinned.
	cl, _, c, ref, done := stragglerRace(t, func(cl *cluster.Cluster, res *engine.Result) {
		jobDone, err := cl.Done(cluster.JobID(res.ID.A))
		if err != nil {
			return
		}
		<-jobDone
		st, err := cl.JobStatus(cluster.JobID(res.ID.A))
		mu.Lock()
		defer mu.Unlock()
		late++
		if err != nil || st.State != cluster.Done || st.Retained != 3 {
			early++
		}
	})
	if err := <-done; err != nil {
		t.Fatalf("job failed: %v", err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result not bit-exact after speculation: max diff %g", d)
	}
	waitReleased(t, cl, func(cluster.Status) int { return 0 })
	mu.Lock()
	gotLate, tooEarly := late, early
	mu.Unlock()
	if gotLate != 2 {
		t.Fatalf("%d losers reported after the job finished, want both stragglers", gotLate)
	}
	if tooEarly != 0 {
		t.Fatalf("%d of %d losers found their job's matrices released before they let go", tooEarly, gotLate)
	}
	st := cl.ClusterStats()
	if st.Speculations != 2 || st.SpecWins != 2 || st.WorkersLost != 0 {
		t.Fatalf("speculations = %d, wins = %d, workers lost = %d; want two won duplicates and no loss",
			st.Speculations, st.SpecWins, st.WorkersLost)
	}
	for _, w := range cl.Workers() {
		if w.Dead || w.Sessions != 1 {
			t.Fatalf("worker %s: dead=%v sessions=%d; every session must survive the release", w.ID, w.Dead, w.Sessions)
		}
	}
}
