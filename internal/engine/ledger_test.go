package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/lu"
	"repro/internal/matrix"
)

// TestWorkerHoldsAdvertisedMemory is the paper's limited memory, checked:
// real cluster jobs — the dispatch gate, the µ cap, the feeder's cache
// budget and RunWorker — over both transports, with every worker's
// count of what it holds (tiles, sets not yet applied, the operand cache
// and its evicted buffers not yet returned; WorkerReport.PeakBlocks)
// never above the m it advertises.
func TestWorkerHoldsAdvertisedMemory(t *testing.T) {
	cases := []struct {
		name           string
		mem, slots, mu int
		r, tt, s, q    int // matmul grid in blocks; LU when lu is set (r×r)
		lu             bool
		wantMu1x1Tasks bool // the ledger cuts the job's µ down to 1×1 chunks
		workers        int
	}{
		{name: "m15-mu3-one-slot", mem: 15, slots: 1, mu: 3, r: 6, tt: 6, s: 6, q: 4, workers: 2, wantMu1x1Tasks: true},
		{name: "m15-mu3-two-slots", mem: 15, slots: 2, mu: 3, r: 6, tt: 6, s: 6, q: 4, workers: 2, wantMu1x1Tasks: true},
		{name: "tight-memory", mem: 16, slots: 2, mu: 1, r: 8, tt: 8, s: 8, q: 4, workers: 2, wantMu1x1Tasks: true},
		{name: "m8-mu1", mem: 8, slots: 2, mu: 1, r: 8, tt: 8, s: 8, q: 4, workers: 2, wantMu1x1Tasks: true},
		{name: "lu-tight", mem: 16, slots: 2, mu: 2, r: 7, q: 4, lu: true, workers: 2},
	}
	for _, fl := range fleets {
		for _, tc := range cases {
			t.Run(fl+"/"+tc.name, func(t *testing.T) {
				cl := cluster.New(cluster.Config{})
				var spec cluster.JobSpec
				var want *matrix.Dense
				if tc.lu {
					orig := matrix.NewDense(tc.r*tc.q, tc.r*tc.q)
					lu.DiagonallyDominant(orig, 7)
					want = orig.Clone()
					if err := lu.Factor(want, tc.q); err != nil {
						t.Fatal(err)
					}
					spec = cluster.JobSpec{Kind: cluster.LU, M: matrix.Partition(orig, tc.q), Mu: tc.mu}
				} else {
					a, b, c, ref := buildInputs(t, tc.r, tc.tt, tc.s, tc.q)
					want = ref.Assemble()
					spec = cluster.JobSpec{Kind: cluster.MatMul, A: a, B: b, C: c, Mu: tc.mu}
				}
				reports := make([]engine.WorkerReport, tc.workers)
				var wg sync.WaitGroup
				for w := range tc.workers {
					sess, err := cl.JoinWorker(fmt.Sprintf("w%d", w), tc.mem, tc.slots)
					if err != nil {
						t.Fatal(err)
					}
					pool := engine.NewBlockPool()
					master, worker := feederPair(t, fl, pool)
					wg.Add(2)
					go func() {
						defer wg.Done()
						comm, _ := engine.RunFeeder(master, sess, engine.FeederConfig{Slots: tc.slots, Pool: pool, Mem: tc.mem})
						sess.Close(cluster.SessionReport{Comm: comm})
					}()
					go func() {
						defer wg.Done()
						var err error
						if reports[w], err = engine.RunWorker(worker, engine.WorkerConfig{Slots: tc.slots, Cores: 1, Pool: pool}); err != nil {
							t.Errorf("worker %d: %v", w, err)
						}
					}()
				}
				id, err := cl.SubmitJob(spec)
				if err != nil {
					t.Fatal(err)
				}
				st, err := cl.Wait(id)
				cl.Close()
				wg.Wait()
				if err != nil || st.State != cluster.Done {
					t.Fatalf("job %v: %v", st.State, err)
				}
				got := spec.C
				if tc.lu {
					got = spec.M
				}
				if !got.Assemble().Equal(want, 0) {
					t.Fatal("result not bit-exact")
				}
				if tc.wantMu1x1Tasks && st.TasksTotal != tc.r*tc.s {
					t.Fatalf("%d tasks, want %d 1×1 chunks", st.TasksTotal, tc.r*tc.s)
				}
				for w, rep := range reports {
					t.Logf("worker %d: peak %d of %d blocks, %d assignments, %d cache hits", w, rep.PeakBlocks, tc.mem, rep.Assignments, rep.CacheHits)
					if rep.PeakBlocks > tc.mem {
						t.Errorf("worker %d held %d blocks, over the %d it advertises", w, rep.PeakBlocks, tc.mem)
					}
					if rep.Assignments > 0 && rep.PeakBlocks == 0 {
						t.Errorf("worker %d served %d assignments holding no block", w, rep.Assignments)
					}
				}
			})
		}
	}
}
