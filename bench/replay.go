//go:build linux

package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/blas"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/netmw"
)

// replayFor is how long each replay loops, at the least: long enough
// that timer resolution and the first cold iteration do not show.
const replayFor = 200 * time.Millisecond

// timeLoop runs f once to warm it, then repeatedly for at least
// replayFor, and returns the mean time per call in seconds.
func timeLoop(f func()) float64 {
	f()
	n := 0
	start := time.Now()
	for time.Since(start) < replayFor {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

func randomBlocks(n, q int, seed uint64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, q*q)
		blas.SignVec(out[i], seed+uint64(i))
	}
	return out
}

// replayKernel times blas.UpdateChunk on one µ×µ chunk at block size q
// — the per-step work of a worker — and returns the time per block
// update in seconds: the paper's w.
func replayKernel(q, mu int) float64 {
	c := randomBlocks(mu*mu, q, 1)
	a := randomBlocks(mu, q, 1000)
	b := randomBlocks(mu, q, 2000)
	per := timeLoop(func() { blas.UpdateChunk(c, a, b, mu, mu, q) })
	return per / float64(mu*mu)
}

// replayVerify times one Freivalds check of a tile updated by steps
// block products, with the cluster's default two probe rounds, in seconds.
func replayVerify(q, steps int) float64 {
	old := randomBlocks(1, q, 1)[0]
	a := randomBlocks(steps, q, 1000)
	b := randomBlocks(steps, q, 2000)
	cand := make([]float64, q*q)
	blas.RecomputeTile(cand, old, a, b, q)
	v := blas.NewTileVerifier(1)
	ok := true
	per := timeLoop(func() { ok = v.Check(cand, old, a, b, q, false, 2, 0) && ok })
	if !ok {
		panic("bench: Freivalds check refused an honest tile")
	}
	return per
}

// replayCodec times the wire float codec on one block and returns
// encode and decode throughput in GB/s.
func replayCodec(q int) (enc, dec float64) {
	fs := randomBlocks(1, q, 1)[0]
	buf := make([]byte, 0, 8*len(fs))
	encT := timeLoop(func() { buf = netmw.EncodeFloats(buf[:0], fs) })
	dst := make([]float64, len(fs))
	decT := timeLoop(func() { netmw.DecodeFloatsInto(dst, buf) })
	bytes := float64(8 * len(fs))
	return bytes / encT / 1e9, bytes / decT / 1e9
}

// replayBlockRTT times one update set of a 1×1 chunk — one A block and
// one B block — from the cluster server transport to the cluster worker
// transport over a loopback TCP connection, and the worker's request
// for the next one coming back. Half of that round trip is the time to
// move one block with everything the transport does to it, in seconds:
// the paper's c.
func replayBlockRTT(q int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c = nil
		}
		dialed <- c
	}()
	srvConn, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer srvConn.Close()
	wkConn := <-dialed
	if wkConn == nil {
		return 0, fmt.Errorf("block rtt: dial failed")
	}
	defer wkConn.Close()

	pool := engine.NewBlockPool()
	master := netmw.NewServerTransport(srvConn, pool, func() error { return nil })
	worker := netmw.NewClusterWorkerTransport(wkConn, pool)

	// The worker end: take the task, then answer every set with a
	// request for the next, releasing buffers as the engine worker does.
	workerDone := make(chan error, 1)
	go func() {
		err := func() error {
			for {
				m, err := worker.Recv()
				if err != nil {
					return err
				}
				switch m := m.(type) {
				case engine.Bye:
					return nil
				case *engine.Assign:
					pool.PutAll(m.Blocks)
					pool.PutAssign(m)
					continue
				case *engine.Set:
					pool.PutAll(m.A)
					pool.PutAll(m.B)
					pool.PutSet(m)
				}
				if err := worker.Send(engine.RequestSet); err != nil {
					return err
				}
			}
		}()
		if err != nil {
			wkConn.Close() // unblock the master end
		}
		workerDone <- err
	}()

	blocks := randomBlocks(3, q, 1)
	// Set frames decode against the open task's geometry, so a task is
	// opened first, and again whenever its steps run out (the wire caps
	// a task at 2¹⁵ steps; one extra frame in that many does not show).
	const stepsPerTask = 1 << 15
	openTask := func(seq int) error {
		as := pool.GetAssign()
		as.ID = engine.AssignID{A: 1, B: uint32(seq), C: 1}
		as.Rows, as.Cols, as.Q, as.Steps = 1, 1, q, stepsPerTask
		as.Blocks = append(as.Blocks, blocks[0])
		return master.Send(as)
	}
	var loopErr error
	k := 0
	per := timeLoop(func() {
		if loopErr == nil && k%stepsPerTask == 0 {
			loopErr = openTask(k / stepsPerTask)
		}
		if loopErr != nil {
			return
		}
		set := pool.GetSet()
		set.K = k % stepsPerTask
		set.A = append(set.A, blocks[1])
		set.B = append(set.B, blocks[2])
		k++
		if loopErr = master.Send(set); loopErr == nil {
			_, loopErr = master.Recv()
		}
	})
	if loopErr != nil {
		wkConn.Close()
		return 0, fmt.Errorf("block rtt: %w (worker end: %v)", loopErr, <-workerDone)
	}
	if err := master.Send(engine.Bye{}); err != nil {
		return 0, err
	}
	if err := <-workerDone; err != nil {
		return 0, fmt.Errorf("block rtt worker: %w", err)
	}
	return per / 2, nil
}

// replayLocal runs the workload's job on cluster.RunLocalWorker pipe
// workers — the same scheduler and engine, no sockets, no codec — and
// returns the median makespan in ms over at least replayFor.
func replayLocal(w workload, in inputs) (float64, error) {
	cl := cluster.New(cluster.Config{})
	workerErr := make(chan error, fleetSize)
	for i := 0; i < fleetSize; i++ {
		go func() {
			workerErr <- cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{
				ID: fmt.Sprintf("local%d", i), Mem: w.memBlocks(), Cores: 1,
			})
		}()
	}
	for len(cl.Workers()) < fleetSize {
		select {
		case err := <-workerErr:
			cl.Close()
			return 0, fmt.Errorf("local worker: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	var ms []float64
	var runErr error
	start := time.Now()
	for i := 0; runErr == nil && (i < 2 || time.Since(start) < replayFor); i++ {
		spec := cluster.JobSpec{Kind: cluster.MatMul, C: in.c0.Clone(), A: in.a, B: in.b, Mu: w.Mu}
		t0 := time.Now()
		_, got, err := runDirect(cl, spec)
		d := time.Since(t0)
		if err == nil {
			err = in.check(got)
		}
		runErr = err
		if i > 0 { // the first job warms pools and caches
			ms = append(ms, float64(d)/1e6)
		}
	}
	cl.Close()
	for i := 0; i < fleetSize; i++ {
		if err := <-workerErr; err != nil && runErr == nil {
			runErr = fmt.Errorf("local worker: %w", err)
		}
	}
	if runErr != nil {
		return 0, runErr
	}
	return median(ms), nil
}

// replayLayerMetrics runs every replay at the workload's shapes and
// fills the rows derived from them. p50 is the untraced median job
// latency in ms (NaN when there was no untraced pass).
func replayLayerMetrics(m *metricSet, w workload, in inputs, p50 float64) error {
	wUpd := replayKernel(w.Q, w.Mu)
	m.set("blas.block_update_us", wUpd*1e6)
	q3 := float64(w.Q) * float64(w.Q) * float64(w.Q)
	m.set("blas.update_gflops", 2*q3/wUpd/1e9)
	kernelMS := wUpd * 1e3 * float64(w.updatesPerJob()) / fleetSize
	m.set("blas.kernel_ms_per_job", kernelMS)
	m.set("blas.kernel_share", kernelMS/p50)

	m.set("blas.verify_us_per_tile", replayVerify(w.Q, w.blocksPerSide())*1e6)
	enc, dec := replayCodec(w.Q)
	m.set("netmw.codec_encode_gbps", enc)
	m.set("netmw.codec_decode_gbps", dec)

	c, err := replayBlockRTT(w.Q)
	if err != nil {
		return err
	}
	m.set("netmw.block_rtt_us", c*1e6)

	local, err := replayLocal(w, in)
	if err != nil {
		return err
	}
	m.set("cluster.local_makespan_ms", local)

	// The paper's prediction for this platform: every worker computes
	// 1/w updates/s behind a link of 1/c blocks/s with m buffers.
	rates := make([]float64, fleetSize)
	for i := range rates {
		rates[i] = bounds.FleetWorkerRate(1/wUpd, 1/c, w.memBlocks(), w.blocksPerSide())
	}
	model := bounds.FleetMakespanLB(w.updatesPerJob(), rates) * 1e3
	m.set("bounds.model_makespan_ms", model)
	m.set("bounds.vs_model", p50/model)
	return nil
}
