package cluster

import (
	"errors"
	"testing"

	"repro/internal/engine"
)

// TestTryNextContract pins Session.TryNext, Next without the wait:
// (nil, nil) where Next would block, counting no park and taking no
// hold; and, for a closed cluster, a lost incarnation and a
// quarantined one, exactly Next's answer.
func TestTryNextContract(t *testing.T) {
	cl, _ := manualCluster(Config{MaxAttempts: 10,
		Verify: VerifyPolicy{Mode: VerifyAll, QuarantineStrikes: 1}})
	defer cl.Close()
	s := join(t, cl, "w", 0, 1)
	idle := func(when string) {
		t.Helper()
		cl.mu.Lock()
		parks, held := cl.parks, len(s.held)
		cl.mu.Unlock()
		if as, err := guarded(t, s.TryNext); as != nil || err != nil {
			t.Fatalf("%s: TryNext = (%v, %v), want (nil, nil)", when, as, err)
		}
		cl.mu.Lock()
		defer cl.mu.Unlock()
		if cl.parks != parks || len(s.held) != held {
			t.Fatalf("%s: TryNext parked %d times and took %d holds, want none",
				when, cl.parks-parks, len(s.held)-held)
		}
	}
	dispatched := func() *engine.Assign {
		t.Helper()
		as, err := guarded(t, s.TryNext)
		if as == nil || err != nil {
			t.Fatalf("TryNext = (%v, %v), want an assignment", as, err)
		}
		if err := engine.RunAssign(as, s, cl.pool); err != nil {
			t.Fatal(err)
		}
		return as
	}
	// answers pins that sess's TryNext and Next both fail with want.
	answers := func(sess *Session, want error) {
		t.Helper()
		for name, pull := range map[string]func() (*engine.Assign, error){"TryNext": sess.TryNext, "Next": sess.Next} {
			if as, err := guarded(t, pull); as != nil || !errors.Is(err, want) {
				t.Fatalf("%s = (%v, %v), want %v", name, as, err, want)
			}
		}
	}

	idle("no job")
	c, a, b, _ := blockedInputs(t, 8, 8, 8, 4, 71)
	if _, err := cl.SubmitJob(JobSpec{Kind: MatMul, C: c, A: a, B: b, Mu: 1}); err != nil {
		t.Fatal(err)
	}
	first := dispatched()
	idle("slot busy")
	if err := s.Acked(first.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitFlush(first.TileIDs(), first.Blocks); err != nil {
		t.Fatal(err)
	}
	// A corrupt tile is refused at flush, and the one strike quarantines.
	bad := dispatched()
	bad.Blocks[0][1] = flipBit62(bad.Blocks[0][1])
	if err := s.Acked(bad.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitFlush(bad.TileIDs(), bad.Blocks); err != nil {
		t.Fatal(err)
	}
	answers(s, ErrWorkerQuarantined)

	lost := join(t, cl, "lost", 0, 1)
	lost.Lost()
	answers(lost, ErrUnknownWorker)

	closed := join(t, cl, "closed", 0, 1)
	cl.Close()
	answers(closed, engine.ErrFeedDone)
}
