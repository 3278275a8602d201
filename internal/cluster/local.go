package cluster

import (
	"errors"
	"fmt"
	"sync"

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
// TCP server runs over the same Session — tasks and their sets pushed —
// minus the sockets and the framing.
func RunLocalWorker(cl *Cluster, cfg LocalWorkerConfig) error {
	sess, err := cl.JoinWorker(cfg.ID, cfg.Mem, 1)
	if err != nil {
		return err
	}
	if cfg.Joined != nil {
		close(cfg.Joined)
	}
	return sess.serveLocal(cfg.Cores)
}

// serveLocal runs the session over an in-process engine worker with the
// given kernel parallelism, then closes it.
func (s *Session) serveLocal(cores int) error {
	cl := s.cl
	master, worker := engine.Pipe()
	type fed struct {
		stats engine.CommStats
		err   error
	}
	feedDone := make(chan fed, 1)
	go func() {
		fstats, err := engine.RunFeeder(master, s, engine.FeederConfig{
			Slots: 1, Pool: cl.pool, Mem: s.w.mem,
		})
		feedDone <- fed{fstats, err}
	}()
	_, err := engine.RunWorker(worker, engine.WorkerConfig{Slots: 1, Cores: cores, Pool: cl.pool})
	// The worker's exit closed the pipe, so the feeder is done or about
	// to be. Only then has the last Set been read, and the session's
	// holds on its jobs' operands may go.
	fe := <-feedDone
	schedErr := s.Close(SessionReport{Comm: fe.stats})
	if err != nil {
		// Surface the scheduler's verdict (dead, replaced, …) or the
		// feeder's failure rather than the pipe closure it caused.
		if schedErr != nil {
			return schedErr
		}
		if fe.err != nil {
			return fe.err
		}
	}
	return err
}

// RunOneJob runs one job to completion on a cluster of its own, served
// by workers in-process workers configured like wcfg (each under its own
// ID and Joined channel), all registered before the job is submitted:
// the in-process face of the service, for a caller that just wants one
// product. It returns once the cluster is closed and every worker
// has returned, with the job's final status — its delta-protocol
// accounting complete, since every session has reported — and the
// registry at that point. A job that did not finish is an error.
func RunOneJob(spec JobSpec, workers int, wcfg LocalWorkerConfig) (Status, []WorkerInfo, error) {
	if workers < 1 {
		return Status{}, nil, errors.New("cluster: need at least one worker")
	}
	cl := New(Config{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		cfg := wcfg
		cfg.ID = fmt.Sprintf("%s%d", wcfg.ID, i)
		cfg.Joined = make(chan struct{})
		exited := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(exited)
			RunLocalWorker(cl, cfg)
		}()
		// Every worker is registered before the job goes in, so all of
		// them take part from the first task rather than racing a job
		// that one of them could finish alone.
		select {
		case <-cfg.Joined:
		case <-exited:
		}
	}
	id, err := cl.SubmitJob(spec)
	if err == nil {
		_, err = cl.Wait(id)
	}
	cl.Close()
	wg.Wait()
	if err != nil {
		return Status{}, nil, err
	}
	st, err := cl.JobStatus(id)
	if err == nil && st.State != Done {
		err = fmt.Errorf("cluster: job %d %s: %v", id, st.State, st.Err)
	}
	return st, cl.Workers(), err
}
