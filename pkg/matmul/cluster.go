package matmul

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/netmw"
	"repro/internal/store"
)

// Cluster-service surface: the long-running fault-tolerant scheduler of
// internal/cluster, which accepts many concurrent matrix-product and LU
// jobs, detects worker failures by heartbeat, and reschedules lost work.

// Re-exported cluster types.
type (
	// Cluster is the multi-job scheduler service.
	Cluster = cluster.Cluster
	// ClusterConfig tunes failure detection and job admission.
	ClusterConfig = cluster.Config
	// ClusterJobSpec describes one job (kind, operands, chunk side µ).
	ClusterJobSpec = cluster.JobSpec
	// ClusterJobStatus is a job snapshot (state, progress, requeues).
	ClusterJobStatus = cluster.Status
	// ClusterJobID names a submitted job.
	ClusterJobID = cluster.JobID
	// ClusterWorkerInfo is a registry snapshot entry.
	ClusterWorkerInfo = cluster.WorkerInfo
	// ClusterStats summarizes the service.
	ClusterStats = cluster.Stats
)

// Job kinds and terminal states.
const (
	JobMatMul = cluster.MatMul
	JobLU     = cluster.LU

	JobQueued  = cluster.Queued
	JobRunning = cluster.Running
	JobDone    = cluster.Done
	JobFailed  = cluster.Failed
)

// NewCluster starts a cluster scheduler. Submit work with
// (*Cluster).SubmitJob (or the SubmitMatMul / SubmitLU helpers), poll it
// with (*Cluster).JobStatus, and block on (*Cluster).Wait.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// SubmitMatMul submits C ← C + A·B with chunk side mu to a cluster.
func SubmitMatMul(cl *Cluster, c, a, b *Blocked, mu int) (ClusterJobID, error) {
	return cl.SubmitJob(ClusterJobSpec{Kind: JobMatMul, C: c, A: a, B: b, Mu: mu})
}

// SubmitLU submits an in-place block LU factorization of m (packed L\U,
// no pivoting) with trailing-update chunk side mu to a cluster.
func SubmitLU(cl *Cluster, m *Blocked, mu int) (ClusterJobID, error) {
	return cl.SubmitJob(ClusterJobSpec{Kind: JobLU, M: m, Mu: mu})
}

// RunClusterWorkerLocal serves a cluster with an in-process worker until
// the cluster closes. Run it on its own goroutine.
func RunClusterWorkerLocal(cl *Cluster, id string, memoryBlocks int) error {
	return cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{ID: id, Mem: memoryBlocks})
}

// RunClusterWorkerLocalCores is RunClusterWorkerLocal with the block
// updates sharded across cores kernel goroutines (bit-identical results).
func RunClusterWorkerLocalCores(cl *Cluster, id string, memoryBlocks, cores int) error {
	return cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{ID: id, Mem: memoryBlocks, Cores: cores})
}

// ClusterService is a running TCP front end for a cluster (mmserve's
// core): workers join with WorkClusterTCP, clients submit with
// SubmitMatMulTCP / SubmitLUTCP.
type ClusterService struct {
	srv *netmw.ClusterServer
}

// ServeClusterTCP exposes a cluster over TCP on addr (":0" picks a free
// port; see Addr). expiryEvery is the heartbeat-expiry sweep cadence
// (0 disables sweeps; connection drops still trigger recovery).
func ServeClusterTCP(cl *Cluster, addr string, expiryEvery time.Duration) (*ClusterService, error) {
	srv, err := netmw.ServeCluster(cl, netmw.ClusterServerConfig{Addr: addr, ExpiryEvery: expiryEvery})
	if err != nil {
		return nil, err
	}
	return &ClusterService{srv: srv}, nil
}

// Addr returns the service's bound listen address.
func (s *ClusterService) Addr() string { return s.srv.Addr() }

// Close stops the TCP front end (the cluster itself is left to its owner).
func (s *ClusterService) Close() error { return s.srv.Close() }

// ClusterWorkerOptions configures WorkClusterTCP.
type ClusterWorkerOptions struct {
	Name         string // stable worker id, reused across reconnects
	MemoryBlocks int    // advertised capacity
	StageCap     int    // staged update sets (default 2)
	// Slots is how many tasks the worker pipelines: with ≥ 2 the next
	// task's C tile streams down while the current one computes (the
	// server keeps the summed footprint within MemoryBlocks). Default 1.
	Slots int
	// Cores is the kernel parallelism (goroutines per block-update
	// sweep); 0 means one shard per core. Results are bit-identical.
	Cores          int
	HeartbeatEvery time.Duration // liveness beacon cadence (0 disables)
	Reconnect      int           // reconnect budget after connection loss
	// Backoff is the base pause between reconnect attempts; it doubles
	// per consecutive failure with full jitter, capped at BackoffMax
	// (0 caps at 16× Backoff), and resets once a session makes progress.
	Backoff    time.Duration
	BackoffMax time.Duration
}

// WorkClusterTCP runs one TCP cluster worker against a ServeClusterTCP
// (or mmserve) endpoint, reconnecting and re-registering on connection
// loss, until the server says goodbye.
func WorkClusterTCP(addr string, opts ClusterWorkerOptions) error {
	_, err := netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
		Addr: addr, Name: opts.Name, Memory: opts.MemoryBlocks,
		StageCap: opts.StageCap, Slots: opts.Slots, Cores: opts.Cores,
		HeartbeatEvery: opts.HeartbeatEvery,
		Reconnect:      opts.Reconnect, Backoff: opts.Backoff, BackoffMax: opts.BackoffMax,
	})
	return err
}

// SubmitMatMulTCP submits C ← C + A·B to a remote cluster service and
// blocks until the result lands back in c.
func SubmitMatMulTCP(addr string, c, a, b *Blocked, mu int, timeout time.Duration) error {
	return netmw.SubmitMatMulTCP(addr, c, a, b, mu, timeout)
}

// SubmitLUTCP submits an in-place LU factorization of m to a remote
// cluster service and blocks until it completes.
func SubmitLUTCP(addr string, m *Blocked, mu int, timeout time.Duration) error {
	return netmw.SubmitLUTCP(addr, m, mu, timeout)
}

// Durable control plane: a write-ahead journal makes the cluster's job
// state survive a master crash. Open a ClusterJournal, hand its Log to
// ClusterConfig.Log, and call (*Cluster).Recover after NewCluster on
// restart — accepted jobs resume from their last committed chunk, and
// keyed resubmissions ((*Cluster).SubmitJobKeyed, or the Durable TCP
// submit helpers) attach to the recovered jobs instead of duplicating
// them. (*Cluster).Drain + AwaitQuiesce give a bounded graceful stop.

// Re-exported durable-control-plane types.
type (
	// ClusterRetryPolicy paces task requeues after worker losses with
	// capped exponential backoff (ClusterConfig.Retry).
	ClusterRetryPolicy = cluster.RetryPolicy
	// ClusterJobLog is the durable sink for job lifecycle events
	// (ClusterConfig.Log).
	ClusterJobLog = cluster.JobLog
	// ClusterRecoveryStats summarizes a (*Cluster).Recover replay.
	ClusterRecoveryStats = cluster.RecoveryStats
	// ClusterSubmitOptions tunes the durable TCP submit helpers:
	// idempotency key, transport-failure retries, jittered backoff.
	ClusterSubmitOptions = netmw.SubmitOptions
)

// Durable-control-plane errors.
var (
	// ErrClusterDraining: the cluster refuses new work while draining
	// (resubmissions of already-accepted keys still attach).
	ErrClusterDraining = cluster.ErrDraining
	// ErrClusterClosed: the cluster has shut down.
	ErrClusterClosed = cluster.ErrClosed
)

// ClusterJournal is an append-only, fsync'd, CRC-framed write-ahead
// journal backing a cluster's control plane.
type ClusterJournal struct{ jn *store.Journal }

// OpenClusterJournal opens (or creates) the journal in dir, dropping any
// torn tail left by a crash.
func OpenClusterJournal(dir string) (*ClusterJournal, error) {
	jn, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	return &ClusterJournal{jn: jn}, nil
}

// Log adapts the journal for ClusterConfig.Log.
func (j *ClusterJournal) Log() ClusterJobLog { return cluster.NewStoreLog(j.jn) }

// Close flushes and closes the journal. Close the cluster first.
func (j *ClusterJournal) Close() error { return j.jn.Close() }

// Result integrity: with ClusterConfig.Verify set, the master
// Freivalds-checks every candidate C tile against its own operand
// matrices before committing it — a randomized probe whose cost is
// O(rounds·steps·q²) per q×q tile versus the O(steps·q³) recompute — and
// escalates probe failures to an exact bit-for-bit recompute. Confirmed-
// corrupt tasks never commit: they are requeued onto other workers and
// the offender is struck, then quarantined at the strike threshold
// (refused work and re-registration, journaled across restarts). Wire
// corruption is handled a layer below by payload checksums on the TCP
// transport and classified as a transport fault — reconnect and resend —
// not a compute fault.

// Verification policy surface (ClusterConfig.Verify).
type (
	// ClusterVerifyPolicy tunes result verification and quarantine.
	ClusterVerifyPolicy = cluster.VerifyPolicy
	// ClusterVerifyMode selects when tiles are verified.
	ClusterVerifyMode = cluster.VerifyMode
	// ClusterQuarantinedWorker is one quarantined worker's record.
	ClusterQuarantinedWorker = cluster.QuarantinedWorker
)

// Verification modes.
const (
	// VerifyOff commits results unchecked.
	VerifyOff = cluster.VerifyOff
	// VerifyAll checks every task's tiles before commit.
	VerifyAll = cluster.VerifyAll
	// VerifySample checks a seeded fraction (SampleRate) of tasks.
	VerifySample = cluster.VerifySample
)

// ErrClusterWorkerQuarantined: the worker was parked for corrupt
// results and is refused work and re-registration.
var ErrClusterWorkerQuarantined = cluster.ErrWorkerQuarantined

// SubmitMatMulDurableTCP is SubmitMatMulTCP with an idempotency key and
// retry-on-transport-failure: the submission survives connection loss
// and even a master crash, as long as the master restarts over its
// journal. Job-level failures (quarantined poison jobs) are final.
func SubmitMatMulDurableTCP(addr string, c, a, b *Blocked, mu int, opts ClusterSubmitOptions) error {
	return netmw.SubmitMatMulDurable(addr, c, a, b, mu, opts)
}

// SubmitLUDurableTCP is SubmitLUTCP with the same durable semantics.
func SubmitLUDurableTCP(addr string, m *Blocked, mu int, opts ClusterSubmitOptions) error {
	return netmw.SubmitLUDurable(addr, m, mu, opts)
}
