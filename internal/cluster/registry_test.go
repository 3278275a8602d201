package cluster

import (
	"testing"

	"repro/internal/engine"
)

// snapshotWorker fetches one worker's registry entry by ID.
func snapshotWorker(t *testing.T, cl *Cluster, id string) WorkerInfo {
	t.Helper()
	for _, wi := range cl.Workers() {
		if wi.ID == id {
			return wi
		}
	}
	t.Fatalf("worker %q missing from registry snapshot", id)
	return WorkerInfo{}
}

// comm is a session report of delta-protocol accounting.
func comm(shipped, skipped, saved int64) SessionReport {
	return SessionReport{Feeder: engine.FeederStats{Comm: engine.CommStats{
		BlocksShipped: shipped, BlocksSkipped: skipped, BytesSaved: saved,
	}}}
}

// TestReconnectCommAccounting is the regression test for the status
// denominators mmserve prints: lifetime comm totals accumulate exactly
// once per reported session — a reconnect must neither reset them nor
// double-count a late report from a replaced incarnation — while
// session counters restart at zero with each incarnation (the caches
// are cold) and reject a replaced incarnation's report entirely.
func TestReconnectCommAccounting(t *testing.T) {
	cl, _ := manualCluster(Config{})
	defer cl.Close()

	s1 := join(t, cl, "w", 64, 1)
	s1.Close(comm(10, 5, 100))
	wi := snapshotWorker(t, cl, "w")
	if wi.BlocksShipped != 10 || wi.BlocksSkipped != 5 || wi.BytesSaved != 100 {
		t.Fatalf("lifetime after first session = %d/%d/%d, want 10/5/100",
			wi.BlocksShipped, wi.BlocksSkipped, wi.BytesSaved)
	}
	if wi.SessBlocksShipped != 10 || wi.SessBlocksSkipped != 5 {
		t.Fatalf("session after first session = %d/%d, want 10/5",
			wi.SessBlocksShipped, wi.SessBlocksSkipped)
	}
	if wi.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", wi.Sessions)
	}

	// Reconnect: lifetime totals carry, session counters restart cold.
	s2 := join(t, cl, "w", 64, 1)
	if s2.w.epoch == s1.w.epoch {
		t.Fatalf("rejoin kept epoch %d; incarnations must be distinct", s2.w.epoch)
	}
	wi = snapshotWorker(t, cl, "w")
	if wi.Sessions != 2 {
		t.Fatalf("sessions = %d after reconnect, want 2", wi.Sessions)
	}
	if wi.BlocksShipped != 10 || wi.BlocksSkipped != 5 || wi.BytesSaved != 100 {
		t.Fatalf("lifetime reset by reconnect: %d/%d/%d, want 10/5/100 carried",
			wi.BlocksShipped, wi.BlocksSkipped, wi.BytesSaved)
	}
	if wi.SessBlocksShipped != 0 || wi.SessBlocksSkipped != 0 {
		t.Fatalf("session counters not reset by reconnect: %d/%d",
			wi.SessBlocksShipped, wi.SessBlocksSkipped)
	}

	// The worker reconnects again while the second session is still
	// tearing down, which then drains late (its reader was still flushing
	// accounting when the replacement joined). Its traffic is real —
	// lifetime accumulates once — but it must not be attributed to the
	// new incarnation's cold session.
	s3 := join(t, cl, "w", 64, 1)
	s2.Close(comm(2, 2, 20))
	wi = snapshotWorker(t, cl, "w")
	if wi.BlocksShipped != 12 || wi.BlocksSkipped != 7 || wi.BytesSaved != 120 {
		t.Fatalf("lifetime after stale report = %d/%d/%d, want 12/7/120 (counted once)",
			wi.BlocksShipped, wi.BlocksSkipped, wi.BytesSaved)
	}
	if wi.SessBlocksShipped != 0 || wi.SessBlocksSkipped != 0 {
		t.Fatalf("stale-epoch report polluted the live session: %d/%d",
			wi.SessBlocksShipped, wi.SessBlocksSkipped)
	}
	if got := wi.SessionCacheHitRate(); got != 0 {
		t.Fatalf("session hit rate = %v on a cold session, want 0", got)
	}

	// A report from the live incarnation lands in both scopes.
	s3.Close(comm(4, 0, 0))
	wi = snapshotWorker(t, cl, "w")
	if wi.BlocksShipped != 16 || wi.BlocksSkipped != 7 {
		t.Fatalf("lifetime after live report = %d/%d, want 16/7",
			wi.BlocksShipped, wi.BlocksSkipped)
	}
	if wi.SessBlocksShipped != 4 || wi.SessBlocksSkipped != 0 {
		t.Fatalf("session after live report = %d/%d, want 4/0",
			wi.SessBlocksShipped, wi.SessBlocksSkipped)
	}
	if lt, sess := wi.CacheHitRate(), wi.SessionCacheHitRate(); lt == sess {
		t.Fatalf("lifetime and session hit rates both %v; the scopes did not separate", lt)
	}
}
