package netmw

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// TestBackoffDelayShape pins the reconnect backoff: doubling from the
// base, capped, and fully jittered within [d/2, d].
func TestBackoffDelayShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := 100 * time.Millisecond
	for attempt, want := range map[int]time.Duration{
		1: base, 2: 2 * base, 3: 4 * base,
		5: 16 * base, 9: 16 * base, // default cap = 16× base
	} {
		for i := 0; i < 50; i++ {
			d := backoffDelay(base, 0, attempt, rng)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	for i := 0; i < 50; i++ {
		if d := backoffDelay(base, 300*time.Millisecond, 4, rng); d > 300*time.Millisecond {
			t.Fatalf("capped delay %v exceeds max", d)
		}
	}
	if d := backoffDelay(0, 0, 3, rng); d != 0 {
		t.Fatalf("zero base gave %v", d)
	}
}

// TestFaultPlanDeterministicAndCounted: two plans with one seed draw the
// same schedule; the counters record what was injected.
func TestFaultPlanDeterministicAndCounted(t *testing.T) {
	cfg := FaultConfig{
		Seed: 42, DropProb: 0.2, DelayProb: 0.3, MaxDelay: time.Millisecond,
		DupProb: 0.3,
	}
	p1, p2 := NewFaultPlan(cfg), NewFaultPlan(cfg)
	for i := 0; i < 500; i++ {
		if d1, d2 := p1.Next(), p2.Next(); d1 != d2 {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, d1, d2)
		}
	}
	c := p1.Counts()
	if c.Messages != 500 || c.Drops == 0 || c.Delays == 0 || c.Dups == 0 {
		t.Fatalf("counts = %+v, want every fault kind represented", c)
	}
}

// faultSessions puts every worker session behind a FaultTransport on one
// plan and remembers which sessions an injected drop killed, so a test
// can tell when every worker is back in a session that will live.
type faultSessions struct {
	plan   *FaultPlan
	mu     sync.Mutex
	latest map[string]*faultSession // each worker's newest session
	drops  int                      // injected drops the sessions returned
}

type faultSession struct {
	*FaultTransport
	owner   *faultSessions
	dropped bool // under owner.mu
}

func (s *faultSession) note(err error) error {
	if errors.Is(err, errInjectedDrop) {
		s.owner.mu.Lock()
		s.dropped = true
		s.owner.drops++
		s.owner.mu.Unlock()
	}
	return err
}

func (s *faultSession) Send(m engine.Msg) error { return s.note(s.FaultTransport.Send(m)) }

func (s *faultSession) Recv() (engine.Msg, error) {
	m, err := s.FaultTransport.Recv()
	return m, s.note(err)
}

// wrap is the server's WrapTransport.
func (fs *faultSessions) wrap(name string, tr engine.Transport) engine.Transport {
	s := &faultSession{FaultTransport: NewFaultTransport(tr, fs.plan), owner: fs}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.latest == nil {
		fs.latest = make(map[string]*faultSession)
	}
	fs.latest[name] = s
	return s
}

// settled reports, once the plan is stopped, whether every drop the plan
// drew has taken its session down and each named worker has registered
// a session since that no drop hit: none is left redialling, so each
// gets its Bye at shutdown.
func (fs *faultSessions) settled(names ...string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.drops != fs.plan.Counts().Drops {
		return false
	}
	for _, name := range names {
		if s := fs.latest[name]; s == nil || s.dropped {
			return false
		}
	}
	return true
}

// TestClusterTCPSurvivesInjectedFaults is the wire-level fault harness:
// every worker session runs behind a FaultTransport drawing from one
// seeded plan (drops, delays, duplicated control messages), workers
// redial with jittered backoff under the same names, and durable keyed
// clients resubmit through master-visible errors. All jobs must still
// finish bit-exact, with at least one injected drop actually exercised.
// The plan stops before shutdown, and shutdown waits until every worker
// is back in a live session: a drop at shutdown would leave its worker
// redialling a closed server past the goroutine check.
func TestClusterTCPSurvivesInjectedFaults(t *testing.T) {
	checkGoroutines(t)
	plan := NewFaultPlan(FaultConfig{
		Seed:      7,
		DropProb:  0.004, // ~1 kill per few hundred messages: several per run
		DelayProb: 0.02, MaxDelay: 200 * time.Microsecond,
		DupProb: 0.05,
	})
	sessions := &faultSessions{plan: plan}
	cl := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	srv, err := ServeCluster(cl, ClusterServerConfig{
		Addr:          "127.0.0.1:0",
		WrapTransport: sessions.wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer cl.Close()
	addr := srv.Addr()

	names := []string{"f1", "f2", "f3"}
	for _, name := range names {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: 256, Slots: 2,
			Reconnect: 1000, Backoff: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		})
	}

	c1, a1, b1, ref1 := matmulInputs(t, 32, 16, 32, 4, 61)
	c2, a2, b2, ref2 := matmulInputs(t, 16, 32, 16, 4, 67)
	orig := matrix.NewDense(32, 32)
	lu.DiagonallyDominant(orig, 71)
	m := matrix.Partition(orig.Clone(), 4)

	opts := SubmitOptions{Retries: 20, Backoff: 5 * time.Millisecond, Timeout: time.Minute}
	errs := make(chan error, 3)
	go func() { errs <- SubmitMatMulDurable(addr, c1, a1, b1, 2, opts) }()
	go func() { errs <- SubmitMatMulDurable(addr, c2, a2, b2, 2, opts) }()
	go func() { errs <- SubmitLUDurable(addr, m, 2, opts) }()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("durable submission failed through faults: %v", err)
		}
	}

	if d := c1.Assemble().MaxDiff(ref1); d != 0 {
		t.Fatalf("mm1 under faults: max |C - ref| = %g", d)
	}
	if d := c2.Assemble().MaxDiff(ref2); d != 0 {
		t.Fatalf("mm2 under faults: max |C - ref| = %g", d)
	}
	if !bitEqual(m, luFactored(t, orig, 4)) {
		t.Fatal("lu under faults is not bit-identical to lu.Factor")
	}
	if fc := plan.Counts(); fc.Drops == 0 {
		t.Fatalf("fault plan injected nothing (%+v) — the harness did not bite", fc)
	}
	plan.Stop()
	waitCond(t, cl, "every worker back in a session no drop hit", func() bool {
		return sessions.settled(names...)
	})
}

// TestClusterTCPCorruptWorkerQuarantine is the end-to-end result-
// integrity acceptance: a three-worker TCP cluster in which one worker's
// result payloads are corrupted post-CRC on a seeded schedule (a compute
// fault, invisible to the wire checksum). Under VerifyAll the job must
// finish bit-exact against the naive oracle — zero corrupted tiles
// committed — with the corrupting worker quarantined after exactly the
// configured number of strikes and refused re-registration, while the
// honest workers absorb the requeued work.
func TestClusterTCPCorruptWorkerQuarantine(t *testing.T) {
	checkGoroutines(t)
	const strikes = 2
	plan := NewFaultPlan(FaultConfig{Seed: 9, CorruptResultProb: 1.0})
	cl := cluster.New(cluster.Config{
		HeartbeatTimeout: time.Hour,
		MaxAttempts:      50,
		Verify:           cluster.VerifyPolicy{Mode: cluster.VerifyAll, QuarantineStrikes: strikes},
	})
	srv, err := ServeCluster(cl, ClusterServerConfig{
		Addr: "127.0.0.1:0",
		WrapTransport: func(name string, tr engine.Transport) engine.Transport {
			if name == "corrupt" {
				return NewFaultTransport(tr, plan)
			}
			return tr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer cl.Close()
	addr := srv.Addr()

	for _, name := range []string{"corrupt", "h1", "h2"} {
		go RunClusterWorker(ClusterWorkerConfig{
			Addr: addr, Name: name, Memory: 256, Slots: 2,
			Reconnect: 50, Backoff: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		})
	}

	// 16×16 blocks of q=4, µ=2 → 64 chunks: plenty of dispatch rounds for
	// the corrupt worker to earn its strikes before the job can finish.
	c, a, b, ref := matmulInputs(t, 64, 64, 64, 4, 91)
	opts := SubmitOptions{Retries: 20, Backoff: 5 * time.Millisecond, Timeout: 2 * time.Minute}
	if err := SubmitMatMulDurable(addr, c, a, b, 2, opts); err != nil {
		t.Fatalf("job failed under result corruption: %v", err)
	}

	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("max |C - ref| = %g: a corrupted tile reached the commit", d)
	}
	if fc := plan.Counts(); fc.ResultFlips < strikes {
		t.Fatalf("fault plan flipped %d results, want >= %d — the harness did not bite", fc.ResultFlips, strikes)
	}
	st := cl.ClusterStats()
	if st.WorkersQuarantined != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	if st.VerifyFailures < strikes || st.TilesRecomputed < strikes {
		t.Fatalf("failures/recomputes = %d/%d, want >= %d each", st.VerifyFailures, st.TilesRecomputed, strikes)
	}
	if st.VerifyChecks == 0 {
		t.Fatal("VerifyAll ran no checks")
	}
	for _, w := range cl.Workers() {
		switch w.ID {
		case "corrupt":
			if w.Strikes != strikes || !w.Quarantined {
				t.Fatalf("corrupt worker = strikes %d quarantined %v, want exactly %d/true",
					w.Strikes, w.Quarantined, strikes)
			}
		default:
			if w.Strikes != 0 || w.Quarantined {
				t.Fatalf("honest worker %q = strikes %d quarantined %v", w.ID, w.Strikes, w.Quarantined)
			}
		}
	}
	if _, err := cl.JoinWorker("corrupt", 256, 1); !errors.Is(err, cluster.ErrWorkerQuarantined) {
		t.Fatalf("rejoin of quarantined worker = %v, want ErrWorkerQuarantined", err)
	}
}

// TestDurableSubmitRetriesAcrossServerRestart: the first submission dies
// with the server; the client's retry, carrying the same key, lands on a
// fresh server and completes. (Full journal-backed restart is exercised
// end to end in cmd/mmserve.)
func TestDurableSubmitRetriesAcrossServerRestart(t *testing.T) {
	checkGoroutines(t)
	cl1 := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	srv1, err := ServeCluster(cl1, ClusterServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	c, a, b, ref := matmulInputs(t, 8, 8, 8, 4, 73)
	errs := make(chan error, 1)
	go func() {
		errs <- SubmitMatMulDurable(addr, c, a, b, 2, SubmitOptions{
			Key: 12345, Retries: 100, Backoff: 10 * time.Millisecond, Timeout: time.Minute,
		})
	}()

	// Wait until the job is accepted, then kill the server with no worker
	// having served it: the client's pending round trip fails.
	waitCond(t, cl1, "the job to arrive", jobsArrived(cl1, 1))
	cl1.Close()
	srv1.Close()

	// Restart on the same address. The listener may need a moment to
	// rebind; the client keeps retrying meanwhile.
	deadline := time.Now().Add(time.Minute)
	var srv2 *ClusterServer
	cl2 := cluster.New(cluster.Config{HeartbeatTimeout: time.Hour})
	defer cl2.Close()
	for {
		srv2, err = ServeCluster(cl2, ClusterServerConfig{Addr: addr})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer srv2.Close()
	go RunClusterWorker(ClusterWorkerConfig{Addr: addr, Name: "w1", Memory: 64})

	if err := <-errs; err != nil {
		t.Fatalf("durable submit across restart: %v", err)
	}
	if d := c.Assemble().MaxDiff(ref); d != 0 {
		t.Fatalf("result after restart: max |C - ref| = %g", d)
	}
}
