package netmw

import (
	"testing"
	"time"
)

// TestReplyStagingReused: the client stages a reply whole before any of
// it reaches dst, and repeated submissions of one shape reuse that
// staging instead of allocating a fresh one per reply. The bound is on
// the bytes the whole process allocates — client, server and worker
// alike: about a fifth of a reply per submission, plus a reply now and
// then when the staging's pool misses (sync.Pool does not promise a
// hit) — against more than a whole reply per submission without reuse.
// The worker's small memory keeps its operand cache from growing
// through the window.
func TestReplyStagingReused(t *testing.T) {
	_, srv := startCluster(t)
	go RunClusterWorker(ClusterWorkerConfig{Addr: srv.Addr(), Name: "w1", Memory: 48})
	const rounds = 8
	c, a, b, _ := matmulInputs(t, 512, 64, 512, 64, 121) // C: 8×8 blocks, 2 MiB
	reply := uint64(blockedBytes(c))
	submit := func() {
		if err := SubmitMatMulTCP(srv.Addr(), c, a, b, 4, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	submit() // warms the staging, the pools and the worker's session
	got := allocatedBy(func() {
		for i := 0; i < rounds; i++ {
			submit()
		}
	})
	if raceEnabled {
		return // sync.Pool drops a random share of Puts under -race: no reuse to bound
	}
	if limit := rounds * reply / 2; got > limit {
		t.Fatalf("%d submissions of a %d-byte reply allocated %d bytes, limit %d: the staging is not reused",
			rounds, reply, got, limit)
	}
}
