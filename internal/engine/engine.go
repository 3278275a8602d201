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
//     stages incoming update sets (StageDepth), pipelines whole
//     assignments (Slots), and shards each block-update sweep across
//     Cores goroutines. Assignments and their update sets are pushed to
//     it; it asks for nothing, and acknowledges each finished assignment
//     unannounced.
//   - RunFeeder is the master side of one worker session: it keeps up
//     to Slots assignments in flight, pulling them from a Feed (the
//     cluster scheduler), pushes each one's update sets right behind its
//     Task, and commits each finished assignment's tile as it arrives.
//
// There is one result protocol, the paper's maximum re-use scheme
// (§4.1, §5): an assignment's C tiles go down once, stay on the worker
// while the update sets stream past, and come back once, as soon as the
// last set is applied: a finished assignment is one Result, which
// acknowledges it and carries its tile, unasked.
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
	// ErrStaleResult marks an acknowledgement the feed no longer wants
	// (the assignment was revoked); the feeder drops it and frees the
	// slot.
	ErrStaleResult = errors.New("engine: stale result")
	// ErrSetRequest ends a RunFeeder session whose worker asked for an
	// update set: the master pushes every set, so the worker speaks the
	// retired pull dialect and is severed (its task is requeued).
	ErrSetRequest = errors.New("engine: protocol violation: the worker asked for an update set (sets are pushed)")
)

// AssignID names one assignment on the wire: the (Job, Seq, Attempt)
// triple, so stale completions are detectable.
type AssignID struct {
	A, B, C uint32
}

// Msg is one engine protocol message. Concrete types: *Assign, *Set,
// *Request, *Result, Bye (and the retired *FlushResult, which nothing
// sends).
type Msg interface {
	engineMsg()
}

// C-block flags of an Assign (Assign.CFlags). They say, per tile block
// in row-major order, how the worker obtains the block's initial value.
// The wire values never change; 1 is retired and refused.
const (
	// CShip: the initial value travels in Assign.Blocks.
	CShip byte = 0
	// CZero: the initial value is all zeros; the worker materializes a
	// zeroed block locally. No payload.
	CZero byte = 2
)

// Assign hands a worker one unit of work: a Rows×Cols tile of C (blocks
// of q² coefficients, row-major) to be updated by Steps update sets. The
// worker accumulates the tile in place and returns it once, in the
// Result that reports the assignment finished. ID.A is the job number.
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

	// CFlags holds Rows·Cols per-block flags (CShip, CZero), and Blocks
	// is COMPACTED: it carries only the CShip payloads, in row-major flag
	// order. Empty CFlags means every tile ships: Blocks is the full
	// tile.
	CFlags []byte
}

// Set carries the operand blocks of one inner step k: Rows blocks of
// A(·,k) then Cols blocks of B(k,·), the maximum re-use update set.
//
// AIDs/BIDs carry the delta protocol's manifest, one block ID per
// operand (see ABlockID/BBlockID; ID 0 marks an untracked entry, which
// always carries its payload), and A/B may hold nil in place of blocks
// the worker already has resident — the receiver resolves those from
// its operand cache. Cap announces the resident-cache capacity the
// worker must mirror after processing this set (both ends evict down to
// it in lock-step, by the same victim rule over this Set's A manifest).
// A worker refuses a Set whose manifest does not match its operands.
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

// Request is the retired worker-to-master demand for the next update
// set. No session sends it any more — RunFeeder refuses it
// (ErrSetRequest) — and the transports keep its frame only for the
// bench's block round-trip replay, which drives them directly.
type Request struct{}

// RequestSet is the shared Request instance: a request carries nothing,
// so every sender and every transport uses this one.
var RequestSet = &Request{}

// Result is a finished assignment's one message home: it names the
// assignment, carries the worker-side compute timing for it — Updates
// block updates took ComputeNS wall nanoseconds of kernel time,
// including any configured Spin, so an emulated slow worker reports
// itself slow; zero means "not measured" — and brings the finished
// Rows×Cols tile back in Blocks, row-major, owned by the receiver. The
// master commits the tile by overwriting its copy: the worker ran each
// block's exact ascending-k accumulation chain in place, so
// overwrite-on-commit keeps results bit-identical to the sequential
// product.
type Result struct {
	ID        AssignID
	Blocks    [][]float64
	Updates   int64
	ComputeNS int64
}

// FlushResult is the retired stand-alone tile message: a Result carries
// its tile now, and no transport sends or decodes one. The type stays
// only while the benchmark's tracer still names it.
type FlushResult struct {
	IDs    []uint64
	Blocks [][]float64
}

// Bye tells a worker to shut down cleanly.
type Bye struct{}

func (*Assign) engineMsg()      {}
func (*Set) engineMsg()         {}
func (*Request) engineMsg()     {}
func (*Result) engineMsg()      {}
func (Bye) engineMsg()          {}
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
