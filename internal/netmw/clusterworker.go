package netmw

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// ClusterWorkerConfig configures one cluster worker process.
type ClusterWorkerConfig struct {
	Addr     string // mmserve address
	Name     string // stable id, reused across reconnects
	Memory   int    // advertised capacity in blocks
	StageCap int    // 0 or engine.StageDepth, the one staging depth; others are refused
	// Slots is how many tasks the worker pipelines: the server keeps up
	// to Slots tasks in flight to this worker, so the next task's C tile
	// streams down while the current one computes (default 1; 2 is the
	// double-buffered pipeline). The server's dispatch keeps the
	// worker's block ledger within the advertised Memory.
	Slots int
	// Cores is the kernel parallelism: goroutines sharding each update's
	// block loop. 0 means one shard per core (GOMAXPROCS) — a worker
	// process owns its machine. Results are bit-identical at any value.
	Cores int
	// Spin adds a deterministic busy-wait per block update after the
	// kernel Cores picks (see engine.WorkerConfig.Spin): it emulates a
	// slower processor so heterogeneity — and the straggler handling it
	// provokes — can be reproduced on a single machine. Results stay
	// bit-identical.
	Spin time.Duration
	// HeartbeatEvery is the liveness beacon cadence. 0 disables beacons,
	// which is only safe against a server whose expiry sweeps are off or
	// far apart (tests): a server running sweeps declares a beaconless
	// worker dead as soon as it idles past the heartbeat timeout.
	HeartbeatEvery time.Duration
	// Reconnect is how many consecutive failed sessions to retry before
	// giving up; 0 means a single session, no retries. The counter resets
	// whenever a session completes at least one task.
	Reconnect int
	// Backoff is the base pause before the first reconnect attempt. The
	// pause doubles per consecutive failed session and carries full jitter
	// (uniform in [d/2, d]), so a fleet of workers dropped by the same
	// master crash does not dial back in lockstep. The doubling stops at
	// 16× Backoff; progress resets the sequence to the base.
	Backoff time.Duration

	// failAfterTasks is a test hook: the worker drops its connection
	// without warning once it has completed this many tasks (0 = never) —
	// the kill-a-worker-mid-job scenario.
	failAfterTasks int
	// pool is a test hook: the block pool every session uses (nil = a
	// fresh one), so a test can read its allocations between jobs.
	pool *engine.BlockPool
}

// ClusterWorkerReport summarizes a cluster worker's lifetime.
type ClusterWorkerReport struct {
	Tasks    int
	Updates  int64
	Sessions int // connections attempted (1 + reconnects)
	// CacheHits counts operand blocks served from the resident cache
	// across all sessions (each session starts cold); BytesSaved is the
	// payload volume those hits avoided.
	CacheHits  int64
	BytesSaved int64
	// PeakBlocks is the most blocks one session held at once
	// (engine.WorkerReport.PeakBlocks), to read against Memory.
	PeakBlocks int
	// FreshBlocks counts the block buffers the worker allocated rather
	// than reused (engine.BlockPool.Fresh), across all sessions.
	FreshBlocks int64
}

// workerDialTimeout bounds each connection attempt of a cluster worker.
const workerDialTimeout = 2 * time.Minute

// errSessionKilled reports the failAfterTasks test hook firing.
var errSessionKilled = fmt.Errorf("netmw: cluster worker killed (test hook)")

// RunClusterWorker joins an mmserve cluster, serves tasks until the
// server says Bye, and reconnects (re-registering under the same name)
// when the connection drops. A master that refuses the worker's
// protocol version ends it at once with ErrProtocolVersion. Each
// session is a thin shell over the engine: a TCP transport (tasks and
// their sets pushed, results unannounced) under engine.RunWorker, plus
// the registration handshake and the heartbeat beacon.
func RunClusterWorker(cfg ClusterWorkerConfig) (rep ClusterWorkerReport, err error) {
	if cfg.Name == "" {
		return ClusterWorkerReport{}, fmt.Errorf("netmw: cluster worker needs a name")
	}
	if cfg.StageCap != 0 && cfg.StageCap != engine.StageDepth {
		return ClusterWorkerReport{}, fmt.Errorf("netmw: StageCap %d: every worker stages %d update sets", cfg.StageCap, engine.StageDepth)
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	pool := cfg.pool
	if pool == nil {
		pool = engine.NewBlockPool()
	}
	defer func() { rep.FreshBlocks = pool.Fresh() }()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	left := cfg.Reconnect
	attempt := 0
	for {
		rep.Sessions++
		tasks, clean, err := clusterSession(cfg, pool, &rep)
		if clean {
			return rep, nil
		}
		if errors.Is(err, ErrProtocolVersion) {
			return rep, err // no redial speaks another version
		}
		if tasks > 0 {
			left = cfg.Reconnect // made progress: fresh retry budget
			attempt = 0          // and the backoff restarts from the base
		}
		if left <= 0 {
			return rep, err
		}
		left--
		attempt++
		if d := backoffDelay(cfg.Backoff, attempt, rng); d > 0 {
			time.Sleep(d)
		}
	}
}

// backoffDelay computes the pause before reconnect attempt n (1-based):
// base·2ⁿ⁻¹ capped at 16× base, the cluster's requeue rule, with full
// jitter — uniform in [d/2, d] — so simultaneously-dropped workers
// spread their redials instead of thundering back together.
func backoffDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	d := base << min(attempt-1, 4)
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// clusterSession runs one connection lifetime. clean reports a deliberate
// Bye from the server (no reconnect wanted).
func clusterSession(cfg ClusterWorkerConfig, pool *engine.BlockPool, rep *ClusterWorkerReport) (tasks int, clean bool, err error) {
	conn, err := net.DialTimeout("tcp", cfg.Addr, workerDialTimeout)
	if err != nil {
		return 0, false, fmt.Errorf("netmw: dial %s: %w", cfg.Addr, err)
	}
	defer conn.Close()
	tr := newClusterWorkerTransport(conn, pool)

	ri := RegisterInfo{Name: cfg.Name, Mem: uint32(cfg.Memory), Slots: uint16(cfg.Slots), Version: ProtocolVersion}
	if err := tr.sendRegister(ri); err != nil {
		return 0, false, err
	}

	hbDone := make(chan struct{})
	defer close(hbDone)
	if cfg.HeartbeatEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.HeartbeatEvery)
			defer tick.Stop()
			for {
				select {
				case <-hbDone:
					return
				case <-tick.C:
					if tr.sendHeartbeat() != nil {
						return
					}
				}
			}
		}()
	}

	wrep, err := engine.RunWorker(tr, engine.WorkerConfig{
		Slots:     cfg.Slots,
		Cores:     blas.DefaultWorkers(cfg.Cores),
		Spin:      cfg.Spin,
		Pool:      pool,
		FailAfter: cfg.failAfterTasks,
	})
	rep.Tasks += wrep.Assignments
	rep.Updates += wrep.Updates
	rep.CacheHits += wrep.CacheHits
	rep.BytesSaved += wrep.BytesSaved
	rep.PeakBlocks = max(rep.PeakBlocks, wrep.PeakBlocks)
	if err == nil {
		return wrep.Assignments, true, nil
	}
	if errors.Is(err, engine.ErrKilled) {
		return wrep.Assignments, false, errSessionKilled
	}
	return wrep.Assignments, false, err
}

// SubmitOptions configures a durable job submission.
type SubmitOptions struct {
	// Key is the idempotency key: retries and resubmissions carrying the
	// same key attach to the same server-side job, including across a
	// master crash and restart (the journal remembers accepted keys). 0
	// means pick a fresh random key.
	Key uint64
	// Retries is how many times to redial and resubmit after a transport
	// failure (connection refused, reset, timed out); 0 means one attempt.
	// A server that answers with a job error is final — job failures are
	// not retried, only transport failures.
	Retries int
	// Backoff is the base pause between attempts, doubling per consecutive
	// failure with full jitter, capped at 16× Backoff.
	Backoff time.Duration
	// Timeout bounds each attempt's dial and round trip (default 2m).
	Timeout time.Duration
}

// errJobRejected marks a server-side job failure carried in a MsgJobDone
// reply — a final answer, not a transport fault to retry.
type errJobRejected struct{ msg string }

func (e *errJobRejected) Error() string { return e.msg }

// submission is one job on its way to an mmserve cluster: header,
// operands in wire order, and the operand the result lands in. Nothing
// is assembled: every attempt streams the frame from the matrices.
type submission struct {
	hdr      JobHeader
	operands []*matrix.Blocked
	dst      *matrix.Blocked
}

func matMulSubmission(c, a, b *matrix.Blocked, mu int, key uint64) *submission {
	return &submission{hdr: JobHeader{
		Kind: WireMatMul, R: uint32(c.BR), T: uint32(a.BC), S: uint32(c.BC),
		Q: uint32(c.Q), Mu: uint32(mu), Key: key,
	}, operands: []*matrix.Blocked{c, a, b}, dst: c}
}

func luSubmission(m *matrix.Blocked, mu int, key uint64) *submission {
	return &submission{hdr: JobHeader{
		Kind: WireLU, R: uint32(m.BR), T: uint32(m.BR), S: uint32(m.BC),
		Q: uint32(m.Q), Mu: uint32(mu), Key: key,
	}, operands: []*matrix.Blocked{m}, dst: m}
}

// frameLen is the MsgSubmit payload length; the wire's limit is an error.
func (sub *submission) frameLen() (int, error) {
	n := uint64(jobHeaderLen) // 64-bit: three operands can pass 2³¹ together
	for _, m := range sub.operands {
		n += uint64(blockedBytes(m))
	}
	if n > maxPayload {
		return 0, fmt.Errorf("netmw: job of %d bytes exceeds the %d-byte submit limit", n, maxPayload)
	}
	return int(n), nil
}

// SubmitMatMulDurable submits C ← C + A·B to an mmserve cluster with
// at-most-once semantics across retries and master restarts: every
// attempt carries the same idempotency key, so a resubmission after a
// dropped connection (or against a restarted master that recovered the
// job from its journal) attaches to the original job instead of running
// it again. Blocks until the job completes, copying the result into c.
func SubmitMatMulDurable(addr string, c, a, b *matrix.Blocked, mu int, opts SubmitOptions) error {
	return matMulSubmission(c, a, b, mu, submitKey(opts.Key)).durable(addr, opts)
}

// SubmitLUDurable submits an in-place LU factorization of m with the
// same at-most-once retry semantics as SubmitMatMulDurable.
func SubmitLUDurable(addr string, m *matrix.Blocked, mu int, opts SubmitOptions) error {
	return luSubmission(m, mu, submitKey(opts.Key)).durable(addr, opts)
}

// SubmitMatMulTCP submits C ← C + A·B to an mmserve cluster and blocks
// until the job completes, copying the result back into c. One attempt,
// unkeyed — the legacy fire-once client.
func SubmitMatMulTCP(addr string, c, a, b *matrix.Blocked, mu int, timeout time.Duration) error {
	return matMulSubmission(c, a, b, mu, 0).roundTrip(addr, timeout)
}

// submitKey returns key, or a fresh random nonzero key when key is 0.
func submitKey(key uint64) uint64 {
	for key == 0 {
		var buf [8]byte
		if _, err := crand.Read(buf[:]); err != nil {
			// The process-unique fallback still never collides with another
			// client's key in practice; idempotency only has to hold for
			// this client's own retries.
			return uint64(time.Now().UnixNano()) | 1
		}
		key = binary.LittleEndian.Uint64(buf[:])
	}
	return key
}

// durable runs the keyed retry loop: transport failures back off and
// resubmit under the same key; a server answer — result or job error —
// is final.
func (sub *submission) durable(addr string, opts SubmitOptions) error {
	if _, err := sub.frameLen(); err != nil {
		return err // no retry makes the job smaller
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var err error
	for attempt := 0; ; attempt++ {
		err = sub.roundTrip(addr, opts.Timeout)
		if err == nil {
			return nil
		}
		var rejected *errJobRejected
		if errors.As(err, &rejected) || errors.Is(err, ErrProtocolVersion) {
			return err // the server answered: retrying cannot change it
		}
		if attempt >= opts.Retries {
			return err
		}
		if d := backoffDelay(opts.Backoff, attempt+1, rng); d > 0 {
			time.Sleep(d)
		}
	}
}

// roundTrip runs one submission attempt. The result is staged and copied
// into dst only once its last byte has arrived, so a reply cut short
// leaves dst untouched — dst is an operand a durable retry resubmits.
func (sub *submission) roundTrip(addr string, timeout time.Duration) error {
	frame, err := sub.frameLen() // refuse before dialling
	if err != nil {
		return err
	}
	if timeout == 0 {
		timeout = 2 * time.Minute
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("netmw: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if err := sub.send(conn, frame); err != nil {
		return fmt.Errorf("netmw: submit write: %w", err)
	}

	var mh [msgHeaderLen]byte
	t, n, err := readMsgHeader(conn, &mh)
	if err != nil {
		return fmt.Errorf("netmw: submit read: %w", err)
	}
	if t != MsgJobDone {
		return fmt.Errorf("netmw: submit got unexpected message %d", t)
	}
	rawDone := make([]byte, min(n, jobDoneHeaderLen))
	if _, err := io.ReadFull(conn, rawDone); err != nil {
		return fmt.Errorf("netmw: submit read: %w", err)
	}
	var hdr JobDoneHeader
	if err := hdr.decode(rawDone); err != nil {
		return err
	}
	n -= jobDoneHeaderLen
	if hdr.Code != 0 {
		msg, err := readPayload(conn, n)
		if err != nil {
			return fmt.Errorf("netmw: submit read: %w", err)
		}
		if hdr.Code == codeVersion { // the master's reason names both versions
			return fmt.Errorf("%w: %s", ErrProtocolVersion, strings.TrimPrefix(string(msg), ErrProtocolVersion.Error()+": "))
		}
		return fmt.Errorf("netmw: job %d failed: %w", hdr.Job, &errJobRejected{msg: string(msg)})
	}
	if want := blockedBytes(sub.dst); n != want {
		return fmt.Errorf("netmw: job %d answered with %d result bytes, want %d", hdr.Job, n, want)
	}
	sp, _ := replyStaging.Get().(*[]float64)
	if sp == nil {
		sp = new([]float64)
	}
	defer replyStaging.Put(sp)
	if cap(*sp) < n/8 {
		*sp = make([]float64, n/8)
	}
	staged := (*sp)[:n/8]
	if err := matrix.ReadFloats(conn, staged); err != nil {
		return fmt.Errorf("netmw: submit read: %w", err)
	}
	for _, b := range sub.dst.Blocks {
		staged = staged[copy(b.Data, staged):]
	}
	return nil
}

// send writes the submission's MsgSubmit frame, whose payload is
// frame bytes (frameLen), to w: the header, then the operands straight
// from their blocks.
func (sub *submission) send(w io.Writer, frame int) error {
	head := make([]byte, msgHeaderLen+jobHeaderLen)
	putMsgHeader(head, MsgSubmit, frame)
	sub.hdr.encode(head[msgHeaderLen:])
	return writeGathered(w, head, sub.operands...)
}

// replyStaging recycles the buffers replies are staged in (*[]float64):
// a reply is read whole before any of it reaches dst, and a fresh
// buffer per reply would be allocated and zeroed only to be overwritten.
var replyStaging sync.Pool
