package matmul

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/netmw"
)

// Cluster-service surface: the long-running fault-tolerant scheduler of
// internal/cluster, which accepts many concurrent jobs, detects worker
// failures by heartbeat, and reschedules lost work.

// Re-exported cluster types.
type (
	// Cluster is the multi-job scheduler service.
	Cluster = cluster.Cluster
	// ClusterConfig tunes failure detection, retries and verification.
	ClusterConfig = cluster.Config
	// ClusterJobSpec describes one job (kind, operands, chunk side µ).
	ClusterJobSpec = cluster.JobSpec
	// ClusterJobID names a submitted job.
	ClusterJobID = cluster.JobID
)

// JobMatMul is the matrix-product job kind.
const JobMatMul = cluster.MatMul

// NewCluster starts a cluster scheduler. Submit work with
// (*Cluster).SubmitJob (or the SubmitMatMul helper), poll it with
// (*Cluster).JobStatus, and block on (*Cluster).Wait.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// SubmitMatMul submits C ← C + A·B with chunk side mu to a cluster.
func SubmitMatMul(cl *Cluster, c, a, b *Blocked, mu int) (ClusterJobID, error) {
	return cl.SubmitJob(ClusterJobSpec{Kind: JobMatMul, C: c, A: a, B: b, Mu: mu})
}

// RunClusterWorkerLocal serves a cluster with an in-process worker until
// the cluster closes. Run it on its own goroutine.
func RunClusterWorkerLocal(cl *Cluster, id string, memoryBlocks int) error {
	return cluster.RunLocalWorker(cl, cluster.LocalWorkerConfig{ID: id, Mem: memoryBlocks})
}

// ClusterService is a running TCP front end for a cluster (mmserve's
// core): workers join with WorkClusterTCP, clients submit with
// SubmitMatMulTCP.
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
	// per consecutive failure with full jitter, capped at 16× Backoff,
	// and resets once a session makes progress.
	Backoff time.Duration
}

// WorkClusterTCP runs one TCP cluster worker against a ServeClusterTCP
// (or mmserve) endpoint, reconnecting and re-registering on connection
// loss, until the server says goodbye.
func WorkClusterTCP(addr string, opts ClusterWorkerOptions) error {
	_, err := netmw.RunClusterWorker(netmw.ClusterWorkerConfig{
		Addr: addr, Name: opts.Name, Memory: opts.MemoryBlocks,
		Slots: opts.Slots, Cores: opts.Cores,
		HeartbeatEvery: opts.HeartbeatEvery,
		Reconnect:      opts.Reconnect, Backoff: opts.Backoff,
	})
	return err
}

// SubmitMatMulTCP submits C ← C + A·B to a remote cluster service and
// blocks until the result lands back in c.
func SubmitMatMulTCP(addr string, c, a, b *Blocked, mu int, timeout time.Duration) error {
	return netmw.SubmitMatMulTCP(addr, c, a, b, mu, timeout)
}

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

// ClusterVerifyPolicy tunes result verification and quarantine
// (ClusterConfig.Verify).
type ClusterVerifyPolicy = cluster.VerifyPolicy

// VerifyAll checks every task's tiles before commit.
const VerifyAll = cluster.VerifyAll
