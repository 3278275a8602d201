package cluster

import (
	"repro/internal/engine"
)

// LocalWorkerConfig configures an in-process worker.
type LocalWorkerConfig struct {
	ID  string
	Mem int // advertised capacity in blocks
	// Cores is the kernel parallelism: the number of goroutines each
	// task's block updates are sharded across (0 or 1 = sequential).
	// Results are bit-identical at any value.
	Cores int
	// Joined, when non-nil, is closed once registration succeeds.
	Joined chan struct{}
}

// RunLocalWorker joins the cluster and serves tasks until the cluster
// closes (returns nil) or the worker is declared dead (returns the
// error). It is the in-process transport: the same engine worker the
// TCP runtime runs, fed through an engine.Pipe by the same feeder the
// TCP server runs — the cluster dialect (tasks pushed, sets pulled)
// minus the sockets and the framing.
func RunLocalWorker(cl *Cluster, cfg LocalWorkerConfig) error {
	epoch, err := cl.JoinWorker(cfg.ID, cfg.Mem, 1)
	if err != nil {
		return err
	}
	if cfg.Joined != nil {
		close(cfg.Joined)
	}
	feed := NewEngineFeed(cl, cfg.ID, epoch)
	defer feed.Lost()
	master, worker := engine.Pipe()
	feedErr := make(chan error, 1)
	go func() {
		fstats, err := engine.RunFeeder(master, feed, engine.FeederConfig{
			Slots: 1, Pool: cl.pool, Mem: cfg.Mem,
		})
		cl.ReportCommEpoch(cfg.ID, epoch, fstats)
		feedErr <- err
	}()
	_, err = engine.RunWorker(worker, engine.WorkerConfig{
		StageCap: 1, Slots: 1, Cores: cfg.Cores,
		PullSets: true,
		Pool:     cl.pool,
	})
	// The worker's exit closed the pipe, so the feeder is done or about
	// to be. Only then has the last Set been read, and the session's
	// holds on its jobs' operands may go.
	fe := <-feedErr
	feed.Close()
	if err != nil {
		// Surface the scheduler's verdict (dead, replaced, a TaskSet or
		// Complete failure, …) rather than the pipe closure it caused.
		if schedErr := feed.TakeNextErr(); schedErr != nil {
			return schedErr
		}
		if fe != nil {
			return fe
		}
	}
	return err
}
