package repro

import (
	"net"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/netmw"
)

// transportBenchInputs builds one steady-state-heavy problem: few
// chunks, many update sets per chunk, so the per-message path dominates
// the per-connection and per-chunk overheads. With zeroC the initial C
// is all zeros (C = A·B), which lets the resident result path announce
// every C tile as a CZero flag instead of a downlink payload.
func transportBenchInputs(r, tt, s, q int, zeroC bool) (a, b, c0 *matrix.Blocked, want *matrix.Dense) {
	ad := matrix.NewDense(r*q, tt*q)
	bd := matrix.NewDense(tt*q, s*q)
	cd := matrix.NewDense(r*q, s*q)
	matrix.DeterministicFill(ad, 41)
	matrix.DeterministicFill(bd, 42)
	if !zeroC {
		matrix.DeterministicFill(cd, 43)
	}
	want = cd.Clone()
	matrix.MulNaive(want, ad, bd)
	return matrix.Partition(ad, q), matrix.Partition(bd, q), matrix.Partition(cd, q), want
}

// transportMu is the chunk side every transport run submits with.
const transportMu = 2

// copyBlocked copies src's coefficients into dst without allocating.
func copyBlocked(dst, src *matrix.Blocked) {
	for i := 0; i < src.BR; i++ {
		for j := 0; j < src.BC; j++ {
			copy(dst.Block(i, j).Data, src.Block(i, j).Data)
		}
	}
}

// wireCounter is implemented by the netmw transports: WireStats.BytesOut
// is the bytes written to the peer, i.e. the measured master egress when
// asserted on the server-side transport.
type wireCounter interface {
	Stats() netmw.WireStats
}

// transportRun is one full multiply through a one-job cluster over
// loopback TCP: the session's delta and result-path accounting plus
// the measured egress bytes.
type transportRun struct {
	comm   engine.CommStats
	egress int64
}

// logicalBlocks is the run's logical block volume through the port,
// the paper's CCR numerator: every operand block of every update set,
// whether the delta protocol shipped it or the worker's cache served
// it, plus the C tiles that moved with payload.
func (r transportRun) logicalBlocks() int64 {
	return r.comm.BlocksShipped + r.comm.BlocksSkipped + r.comm.CDown + r.comm.CUp
}

// runTransportOnce runs C ← C + A·B as the only job of a fresh cluster,
// served by one worker session over loopback TCP — the production
// session (the server transport under engine.RunFeeder with the
// worker's cluster.Session, a pipelined engine.RunWorker with two slots and
// two staged sets behind the cluster-worker transport) wired by hand so
// that its block pool is the caller's: one that outlives the run, as a
// served cluster's does, or nil to run both transports, the feeder and
// the worker unpooled.
func runTransportOnce(tb testing.TB, ln net.Listener, c, a, b *matrix.Blocked, pool *engine.BlockPool) transportRun {
	cl := cluster.New(cluster.Config{})
	defer cl.Close()
	id, err := cl.SubmitJob(cluster.JobSpec{Kind: cluster.MatMul, C: c, A: a, B: b, Mu: transportMu})
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := cl.JoinWorker("w", 0, 2)
	if err != nil {
		tb.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	wconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		engine.RunWorker(netmw.NewClusterWorkerTransport(wconn, pool), engine.WorkerConfig{
			StageCap: 2, Slots: 2, Cores: 1, Pool: pool,
		})
	}()
	srv := netmw.NewServerTransport(<-accepted, pool, sess.Heartbeat)
	fed := make(chan engine.CommStats, 1)
	go func() {
		comm, _ := engine.RunFeeder(srv, sess, engine.FeederConfig{Slots: 2, Pool: pool})
		fed <- comm
	}()
	st, err := cl.Wait(id)
	if err != nil || st.State != cluster.Done {
		tb.Fatalf("job ended %v: %v", st.State, err)
	}
	cl.Close() // the feed's clean end: the feeder says Bye
	comm := <-fed
	sess.Close(cluster.SessionReport{Comm: comm})
	wg.Wait()
	return transportRun{comm: comm, egress: srv.(wireCounter).Stats().BytesOut}
}

// BenchmarkTransport measures the steady-state TCP path of a worker
// session — the feeder streaming update sets through the framed wire
// format to a pipelined worker — with and without the
// block-buffer/message pool. The pooled arm must sit an order of
// magnitude below the unpooled arm in allocs/op (the explicit release
// on result-ack is what makes the steady state allocation-free); MB/s
// is the payload of every logical block through the port. Results are
// checked bit-exact against the naive oracle (the engine accumulates
// every element in ascending-k order, exactly as the oracle does).
func BenchmarkTransport(b *testing.B) {
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want := transportBenchInputs(r, tt, s, q, false)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	for _, arm := range []struct {
		name string
		pool *engine.BlockPool
	}{
		{"pooled", engine.NewBlockPool()},
		{"unpooled", nil},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var blocks int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyBlocked(work, c0)
				b.StartTimer()
				blocks = runTransportOnce(b, ln, work, a, bb, arm.pool).logicalBlocks()
			}
			b.StopTimer()
			b.SetBytes(blocks * int64(q) * int64(q) * 8)
			got := work.Assemble()
			for i := 0; i < got.Rows; i++ {
				for j := 0; j < got.Cols; j++ {
					if got.At(i, j) != want.At(i, j) {
						b.Fatalf("result differs from the oracle at (%d,%d): %g != %g",
							i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		})
	}
}

// TestTransportPoolingAllocRatio pins the acceptance bar: the pooled
// steady-state TCP path must allocate at least 10× less per run than
// the unpooled path, with a bit-exact result. (The benchmark reports
// the same numbers; this test makes the regression loud.)
func TestTransportPoolingAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short/race runs")
	}
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want := transportBenchInputs(r, tt, s, q, false)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	measure := func(pool *engine.BlockPool) float64 {
		// One untimed warmup run fills the pools (and the page cache).
		copyBlocked(work, c0)
		runTransportOnce(t, ln, work, a, bb, pool)
		return testing.AllocsPerRun(3, func() {
			copyBlocked(work, c0)
			runTransportOnce(t, ln, work, a, bb, pool)
		})
	}
	pooled := measure(engine.NewBlockPool())
	unpooled := measure(nil)
	t.Logf("allocs/run: pooled=%.0f unpooled=%.0f ratio=%.1fx", pooled, unpooled, unpooled/pooled)
	if pooled*10 > unpooled {
		t.Fatalf("pooling saves only %.1fx allocations (pooled %.0f, unpooled %.0f), want ≥ 10x",
			unpooled/pooled, pooled, unpooled)
	}
	got := work.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("result differs from the oracle at (%d,%d)", i, j)
			}
		}
	}
}

// maxReuseBench is the max-reuse configuration the result-path series
// tracks: a square 16×16×16-block problem at q=16 with µ=2 chunks and a
// zero-initialized C. The 512 distinct operand blocks all fit the
// default worker cache, so the delta protocol ships each exactly once;
// the zero C ships down as flags (CDown = 0) and each of the 256 C
// tiles flushes up exactly once (CUp, reported as flush-blocks/op).
const mrR, mrT, mrS, mrQ = 16, 16, 16, 16

// BenchmarkTransportDelta measures master egress of the max-reuse job
// over loopback TCP on the data path every job runs: delta operand sets
// plus resident single-flush results. It reports egress-MB/op, the
// operand cache hit rate, the result-path series (flush-blocks/op and
// flush-MB/op) and the measured
// communication volume as a multiple of the §4 Loomis–Whitney lower
// bound (x-lower-bound) — the numbers BENCH_transport.json tracks
// across PRs.
func BenchmarkTransportDelta(b *testing.B) {
	a, bb, c0, want := transportBenchInputs(mrR, mrT, mrS, mrQ, true)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	b.Run("delta", func(b *testing.B) {
		pool := engine.NewBlockPool()
		var run transportRun
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copyBlocked(work, c0)
			b.StartTimer()
			run = runTransportOnce(b, ln, work, a, bb, pool)
		}
		b.StopTimer()
		b.ReportMetric(float64(run.egress)/1e6, "egress-MB/op")
		hits := run.comm.BlocksSkipped
		b.ReportMetric(float64(hits)*100/float64(max(hits+run.comm.BlocksShipped, 1)), "%cache-hit")
		b.ReportMetric(float64(run.comm.CUp), "flush-blocks/op")
		b.ReportMetric(float64(run.comm.CUp*mrQ*mrQ*8)/1e6, "flush-MB/op")
		pr := core.Problem{R: mrR, S: mrS, T: mrT, Q: mrQ}
		b.ReportMetric(measuredOverLowerBound(run, pr), "x-lower-bound")
		got := work.Assemble()
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < got.Cols; j++ {
				if got.At(i, j) != want.At(i, j) {
					b.Fatalf("result differs from the oracle at (%d,%d)", i, j)
				}
			}
		}
	})
}

// measuredOverLowerBound compares one run's measured master-side block
// traffic against the paper's §4 communication lower bound.
//
//	measured = Comm.BlocksShipped   (operand payloads actually sent)
//	         + Comm.CDown           (C tiles shipped down with payload)
//	         + Comm.CUp             (C tiles returned in results)
//	bound    = √(27/(8m)) · updates (LowerBoundLoomisWhitney · |updates|)
//
// Skipped operand blocks (cache hits) and CZero flags
// move no payload and do not count; every block that does carries q²
// doubles, so block counts compare directly. m is the worker memory the
// run effectively had: the default resident-cache budget (the bench
// worker advertises no memory) plus a µ-chunk's in-flight footprint.
func measuredOverLowerBound(run transportRun, pr core.Problem) float64 {
	mem := engine.DefaultCacheBlocks + engine.InflightFootprint(transportMu, transportMu)
	bound := bounds.LowerBoundLoomisWhitney(mem) * float64(pr.Updates())
	measured := float64(run.comm.BlocksShipped + run.comm.CDown + run.comm.CUp)
	return measured / bound
}

// TestResultPathLowerBound is the acceptance pin for the result path:
// on the max-reuse configuration, the full data path — delta operand
// sets plus resident single-flush results — must land within 4× of the
// Loomis–Whitney lower bound (shipping every chunk's C tiles down and
// back with each chunk would sit at ~9×), with every C tile flushed
// exactly once, no C payload downlink (the zero C rides the CZero
// flag), and a bit-exact result.
func TestResultPathLowerBound(t *testing.T) {
	a, bb, c0, want := transportBenchInputs(mrR, mrT, mrS, mrQ, true)
	work := c0.Clone()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	run := runTransportOnce(t, ln, work, a, bb, engine.NewBlockPool())
	got := work.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("result differs from the oracle at (%d,%d)", i, j)
			}
		}
	}
	pr := core.Problem{R: mrR, S: mrS, T: mrT, Q: mrQ}
	if fb := run.comm.CUp; fb != int64(pr.R*pr.S) {
		t.Fatalf("flushed %d blocks, want every C tile exactly once (%d)", fb, pr.R*pr.S)
	}
	if cd := run.comm.CDown; cd != 0 {
		t.Fatalf("shipped %d C payloads down; a zero C must ride the CZero flag", cd)
	}
	x := measuredOverLowerBound(run, pr)
	t.Logf("max-reuse: measured/lower-bound = %.2fx (shipped %d, C down %d, C up %d)",
		x, run.comm.BlocksShipped, run.comm.CDown, run.comm.CUp)
	if x >= 4 {
		t.Fatalf("measured communication is %.2fx the lower bound, want < 4x", x)
	}
}

// TestDeltaEgressReduction is the acceptance pin for the delta operand
// protocol: on a multi-chunk max-reuse job, measured master-egress
// bytes must sit at least 40% below what the full-set protocol sends —
// the payload of every logical operand block of every update set,
// 8·q² bytes each — while staying bit-exact against the naive oracle.
func TestDeltaEgressReduction(t *testing.T) {
	const r, tt, s, q = 4, 64, 4, 24
	a, bb, c0, want := transportBenchInputs(r, tt, s, q, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	work := c0.Clone()
	run := runTransportOnce(t, ln, work, a, bb, engine.NewBlockPool())
	got := work.Assemble()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("result differs from the oracle at (%d,%d)", i, j)
			}
		}
	}
	// Every chunk streams T sets of rows+cols operand blocks: the logical
	// operand volume is fixed by the problem, whatever the cache served.
	logical := run.comm.BlocksShipped + run.comm.BlocksSkipped
	if want := int64(tt) * int64(r*s/(transportMu*transportMu)) * 2 * transportMu; logical != want {
		t.Fatalf("logical operand blocks = %d, want %d", logical, want)
	}
	full := logical * q * q * 8
	drop := 1 - float64(run.egress)/float64(full)
	t.Logf("egress: full=%d bytes, delta=%d bytes, drop=%.1f%% (skipped %d of %d operand blocks)",
		full, run.egress, drop*100, run.comm.BlocksSkipped, logical)
	if drop < 0.40 {
		t.Fatalf("delta protocol cut egress by %.1f%%, want ≥ 40%%", drop*100)
	}
}

// BenchmarkTransportCodec measures the bulk little-endian float path
// against the portable per-element loop on q=100 blocks (the paper's
// block size) — the encode/decode speedup BENCH_transport.json records
// alongside the egress numbers.
func BenchmarkTransportCodec(b *testing.B) {
	const q = 100
	block := make([]float64, q*q)
	for i := range block {
		block[i] = float64(i) * 1.0000001
	}
	encoded := make([]byte, 0, 8*len(block))
	dst := make([]float64, len(block))
	arms := []struct {
		name string
		run  func()
	}{
		{"encode-bulk", func() { encoded = netmw.EncodeFloats(encoded[:0], block) }},
		{"encode-portable", func() { encoded = matrix.AppendFloatsPortable(encoded[:0], block) }},
		{"decode-bulk", func() { netmw.DecodeFloatsInto(dst, encoded) }},
		{"decode-portable", func() { matrix.DecodeFloatsPortableInto(dst, encoded) }},
	}
	encoded = netmw.EncodeFloats(encoded[:0], block) // prime for the decode arms
	// 64 codec passes per benchmark iteration: `make bench` runs few
	// iterations, and a multi-hundred-µs op amortizes timer noise on a
	// shared machine.
	const reps = 64
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(int64(8*len(block)) * reps)
			for i := 0; i < b.N; i++ {
				for r := 0; r < reps; r++ {
					arm.run()
				}
			}
		})
	}
}
