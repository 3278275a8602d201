// Package engine is the one demand-driven master/worker engine behind
// every product the repository runs: the cluster service
// (internal/cluster) drives it over TCP (internal/netmw) and over
// in-process pipes (cluster.RunLocalWorker) through a small Transport
// interface, so the paper's one-port model (§2.2), the staging
// discipline and the demand-driven ODDOML routing (§8.2) are
// implemented exactly once. A single product is a one-job cluster.
//
// The engine has two roles:
//
//   - RunWorker is the worker program: a reader/compute pipeline that
//     stages incoming update sets (StageCap), pipelines whole
//     assignments (Slots), and shards each block-update sweep across
//     Cores goroutines. Assignments are pushed to it; it requests each
//     update set as a staging slot frees, and returns results
//     unannounced.
//   - RunFeeder is the master side of one worker session: it keeps up
//     to Slots assignments in flight, pulling them from a Feed (the
//     cluster scheduler), routes set requests to the oldest incomplete
//     assignment, and retires results and flushes.
//
// Messages carry q×q block payloads as [][]float64. Buffer ownership is
// explicit: a message whose Owned flag is set hands its buffers to the
// receiver, which must release them to a BlockPool when done; an
// unowned message shares read-only references (the zero-copy in-process
// path). Transports that serialize (TCP) rewrite the flag on each hop.
// With pooling, steady-state runs stop allocating per message — see
// BenchmarkTransport.
package engine

import "errors"

// Sentinel errors of the engine protocol.
var (
	// ErrClosed is returned by transport endpoints after Close.
	ErrClosed = errors.New("engine: transport closed")
	// ErrKilled reports the FailAfter test hook severing a worker
	// mid-assignment (the kill-a-worker scenario of the recovery tests).
	ErrKilled = errors.New("engine: worker killed (test hook)")
	// ErrFeedDone tells RunFeeder the feed has no more work ever (clean
	// shutdown): drain the in-flight assignments, say goodbye, stop.
	ErrFeedDone = errors.New("engine: feed finished")
	// ErrStaleResult marks a completion the feed no longer wants (the
	// assignment was revoked); the feeder drops it and frees the slot.
	ErrStaleResult = errors.New("engine: stale result")
	// ErrStaleAssign is returned by Feed.Set for an assignment the feed
	// revoked and whose operands it no longer holds. The worker is still
	// owed a set, so the feeder answers with a filler of the right shape:
	// the doomed assignment runs to its end, its result is refused as
	// stale, and the session lives on.
	ErrStaleAssign = errors.New("engine: stale assignment")
	// ErrFlushWanted is returned by Feed.Next when the feed has no task to
	// hand out until the worker flushes its accumulated C blocks: the
	// feeder sends Flush instead of an assignment and retries Next once
	// the flush manifest is committed.
	ErrFlushWanted = errors.New("engine: flush wanted")
)

// AssignID names one assignment on the wire: the (Job, Seq, Attempt)
// triple, so stale completions are detectable.
type AssignID struct {
	A, B, C uint32
}

// Msg is one engine protocol message. Concrete types: *Assign, *Set,
// *Request, *Result, Bye.
type Msg interface {
	engineMsg()
}

// C-block flags of a resident-result Assign (Assign.CFlags). They say,
// per tile block in row-major order, how the worker obtains the block's
// initial value.
const (
	// CShip: the initial value travels in Assign.Blocks.
	CShip byte = 0
	// CResident: the worker already holds the block dirty in its result
	// cache (a previous chunk of the same job wrote it) and keeps
	// accumulating in place. No payload.
	CResident byte = 1
	// CZero: the initial value is all zeros; the worker materializes a
	// zeroed block locally. No payload.
	CZero byte = 2
)

// Assign hands a worker one unit of work: a Rows×Cols tile of C (blocks
// of q² coefficients, row-major) to be updated by Steps update sets.
type Assign struct {
	ID         AssignID
	I0, J0     int // tile position in C's block grid
	Rows, Cols int
	Q          int
	Steps      int
	Blocks     [][]float64
	// Owned hands the block buffers to the receiver, which mutates them
	// in place and must eventually release them. Unowned blocks are
	// shared references the receiver must copy before mutating (only
	// serializing transports may consume them as-is).
	Owned bool

	// CFlags, when non-empty, switches the assignment to the resident
	// result protocol: it holds Rows·Cols per-block flags (CShip,
	// CResident, CZero) and Blocks is COMPACTED — it carries only the
	// CShip payloads, in row-major flag order. The worker accumulates
	// the tile in its result cache under CBlockID(CJob, I0+i, J0+j) and
	// acknowledges completion with an empty Result; the blocks travel
	// up once, in a FlushResult. Empty CFlags is the legacy dense
	// protocol: Blocks is the full tile and the Result returns it.
	CFlags []byte
	// CJob scopes the C block IDs.
	CJob uint32
}

// Set carries the operand blocks of one inner step k: Rows blocks of
// A(·,k) then Cols blocks of B(k,·), the maximum re-use update set.
//
// With the delta protocol, AIDs/BIDs carry the manifest of block IDs
// (see ABlockID/BBlockID; ID 0 marks an untracked entry) and A/B may
// hold nil in place of blocks the worker already has resident — the
// receiver resolves those from its operand cache. Cap announces the
// resident-cache capacity the worker must mirror after processing this
// set (the LRU on both ends evicts down to it in lock-step). A Set
// whose manifest is empty is a full set: every operand has a payload,
// exactly the pre-delta protocol.
type Set struct {
	K          int
	A, B       [][]float64
	AIDs, BIDs []uint64
	Cap        int
	// Owned hands the buffers to the receiver for release after the
	// update is applied (cache-pinned blocks are released on eviction
	// instead); unowned sets are read-only shared references.
	Owned bool
}

// Request is a worker-to-master demand: serve me the next update set of
// my oldest incomplete assignment as soon as the port is free.
type Request struct{}

// RequestSet is the shared Request instance: a request carries nothing,
// so every sender and every transport uses this one instead of
// allocating one per update set.
var RequestSet = &Request{}

// Result returns a finished assignment's C blocks, plus the worker-side
// compute timing for the assignment: Updates block updates took
// ComputeNS wall nanoseconds of kernel time (including any configured
// Spin, so an emulated slow worker reports itself slow). Zero timing
// fields mean "not measured" — old peers and tests that build Results
// by hand stay valid.
type Result struct {
	ID        AssignID
	Blocks    [][]float64
	Owned     bool
	Updates   int64
	ComputeNS int64
}

// Flush asks a worker to return every dirty C block it holds resident,
// in one FlushResult. The master sends it when a job needs its results
// (job end, or memory pressure on the worker).
type Flush struct{}

// FlushResult returns a worker's accumulated C blocks: the manifest of
// C block IDs (CBlockID) and the matching block payloads, sorted by ID.
// The master commits each block by overwriting the destination tile —
// the worker continued the exact ascending-k accumulation chain in
// place, so overwrite-on-commit keeps results bit-identical to the
// dense per-chunk protocol. An empty manifest is a valid answer ("I
// hold nothing dirty"). ComputeNS carries the worker's cumulative
// kernel time for the session at flush, so a master that only hears
// from a worker at flush boundaries still gets a speed signal.
type FlushResult struct {
	IDs       []uint64
	Blocks    [][]float64
	Owned     bool
	ComputeNS int64
}

// Bye tells a worker to shut down cleanly.
type Bye struct{}

func (*Assign) engineMsg()      {}
func (*Set) engineMsg()         {}
func (*Request) engineMsg()     {}
func (*Result) engineMsg()      {}
func (Bye) engineMsg()          {}
func (Flush) engineMsg()        {}
func (*FlushResult) engineMsg() {}

// Transport moves engine messages between one master-side endpoint and
// one worker-side endpoint. Send transfers ownership of the message and
// its Owned buffers; Recv grants ownership of Owned buffers to the
// caller. Implementations must allow Send and Recv to run concurrently
// with each other and with Close; Close unblocks both with ErrClosed
// (or the implementation's connection error).
type Transport interface {
	Send(Msg) error
	Recv() (Msg, error)
	Close() error
}
