package sim

import (
	"testing"

	"repro/internal/platform"
)

// failurePool builds a small demand-driven instance: n chunks of b blocks
// with s steps each.
func failurePool(n, b, s int) []*Chunk {
	var pool []*Chunk
	for i := 0; i < n; i++ {
		ch := &Chunk{ID: i, Rows: 1, Cols: b, Blocks: b}
		for k := 0; k < s; k++ {
			ch.Steps = append(ch.Steps, Step{Blocks: 2, Updates: int64(b)})
		}
		pool = append(pool, ch)
	}
	return pool
}

func runFailureCase(t *testing.T, fails []Failure) (Result, Result) {
	t.Helper()
	pl := platform.Homogeneous(3, 1, 4, 100)
	mk := func(fs []Failure) Result {
		res, err := Run(Input{
			Platform: pl,
			Configs:  []WorkerConfig{{StageCap: 2}, {StageCap: 2}, {StageCap: 2}},
			Pool:     failurePool(6, 2, 3),
			Policy:   NewDemandPolicy("fcfs", FirstToReceive),
			Failures: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return mk(nil), mk(fails)
}

// TestFailureRecoveryCompletes kills one worker mid-run and checks the
// survivors finish every chunk, paying a measurable recovery overhead.
func TestFailureRecoveryCompletes(t *testing.T) {
	clean, failed := runFailureCase(t, []Failure{{Worker: 0, At: 10}})
	if failed.Failures != 1 {
		t.Fatalf("failures = %d, want 1", failed.Failures)
	}
	if failed.Requeues < 1 {
		t.Fatalf("requeues = %d, want ≥ 1 (worker 0 should have held a chunk at t=10)", failed.Requeues)
	}
	if failed.Chunks != clean.Chunks {
		t.Fatalf("chunks = %d, want %d", failed.Chunks, clean.Chunks)
	}
	if failed.Makespan <= clean.Makespan {
		t.Fatalf("failed makespan %g not above clean %g", failed.Makespan, clean.Makespan)
	}
	// The requeued chunk's traffic and updates are paid twice.
	if failed.Updates <= clean.Updates {
		t.Fatalf("failed updates %d not above clean %d (lost work should be redone)", failed.Updates, clean.Updates)
	}
	if failed.Blocks <= clean.Blocks {
		t.Fatalf("failed blocks %d not above clean %d", failed.Blocks, clean.Blocks)
	}
}

// TestFailureDeterministic checks the injected run is exactly
// reproducible.
func TestFailureDeterministic(t *testing.T) {
	_, a := runFailureCase(t, []Failure{{Worker: 1, At: 7}})
	_, b := runFailureCase(t, []Failure{{Worker: 1, At: 7}})
	if a.Makespan != b.Makespan || a.Blocks != b.Blocks || a.Updates != b.Updates ||
		a.Requeues != b.Requeues || a.Failures != b.Failures {
		t.Fatalf("two identical failure runs differ:\n%+v\n%+v", a, b)
	}
}

// TestFailureBeforeStart kills a worker before it receives anything: no
// chunk is lost, the survivors just share the pool.
func TestFailureBeforeStart(t *testing.T) {
	_, failed := runFailureCase(t, []Failure{{Worker: 2, At: 0}})
	if failed.Failures != 1 {
		t.Fatalf("failures = %d, want 1", failed.Failures)
	}
	if failed.Requeues != 0 {
		t.Fatalf("requeues = %d, want 0 for a pre-start crash", failed.Requeues)
	}
	if failed.WorkerBusy[2] != 0 {
		t.Fatalf("dead worker busy %g, want 0", failed.WorkerBusy[2])
	}
}

// TestAllWorkersDeadErrors checks the engine reports unfinishable work
// instead of hanging or silently dropping chunks.
func TestAllWorkersDeadErrors(t *testing.T) {
	pl := platform.Homogeneous(2, 1, 4, 100)
	_, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 1}, {StageCap: 1}},
		Pool:     failurePool(4, 2, 2),
		Policy:   NewDemandPolicy("fcfs", FirstToReceive),
		Failures: []Failure{{Worker: 0, At: 1}, {Worker: 1, At: 1}},
	})
	if err == nil {
		t.Fatal("expected an error with every worker dead")
	}
}

// TestSourceCarvesOnClaim feeds failurePool's chunks through Input.Source
// instead of Pool: a chunk is carved only when its SendC is picked, the
// failure-free run matches pool mode, and a carved chunk lost to a crash
// is requeued and finished by a survivor.
func TestSourceCarvesOnClaim(t *testing.T) {
	clean, failed := runFailureCase(t, []Failure{{Worker: 0, At: 10}})
	for _, fs := range [][]Failure{nil, {{Worker: 0, At: 10}}} {
		left, claims := failurePool(6, 2, 3), 0
		res, err := Run(Input{
			Platform: platform.Homogeneous(3, 1, 4, 100),
			Configs:  []WorkerConfig{{StageCap: 2}, {StageCap: 2}, {StageCap: 2}},
			Source: func(w int, claim bool) *Chunk {
				if len(left) == 0 {
					return nil
				}
				ch := left[0]
				if claim {
					left, claims = left[1:], claims+1
				}
				return ch
			},
			Policy:   NewDemandPolicy("fcfs", FirstToReceive),
			Failures: fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if claims != 6 || res.Chunks != 6 {
			t.Fatalf("failures %v: %d claims, %d chunks, want 6", fs, claims, res.Chunks)
		}
		want := clean
		if fs != nil {
			want = failed
		}
		if fs == nil && (res.Makespan != want.Makespan || res.Blocks != want.Blocks) {
			t.Fatalf("source run %+v differs from pool run %+v", res, want)
		}
		if res.Requeues != want.Requeues || res.Updates != want.Updates {
			t.Fatalf("failures %v: %d requeues, %d updates, want %d and %d",
				fs, res.Requeues, res.Updates, want.Requeues, want.Updates)
		}
	}
}

// TestFailureRequiresPoolMode checks static queues reject injection.
func TestFailureRequiresPoolMode(t *testing.T) {
	pl := platform.Homogeneous(1, 1, 4, 100)
	pool := failurePool(1, 1, 1)
	_, err := Run(Input{
		Platform: pl,
		Configs:  []WorkerConfig{{StageCap: 1}},
		Queues:   [][]*Chunk{pool},
		Policy:   NewSequencePolicy("seq", []SeqOp{{0, SendC}, {0, SendAB}, {0, RecvC}}),
		Failures: []Failure{{Worker: 0, At: 1}},
	})
	if err == nil {
		t.Fatal("expected Queues + Failures to be rejected")
	}
}
