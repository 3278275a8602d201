package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig parameterizes a seeded fault schedule. All probabilities
// are per message in [0, 1]; the zero config injects nothing.
type FaultConfig struct {
	Seed int64
	// DropProb kills the connection at a message boundary (the harness
	// treats a drop as a hard connection loss, not a silent discard — the
	// protocols below assume TCP, where bytes don't vanish from the
	// middle of a live stream).
	DropProb float64
	// DelayProb stalls a message; the stall is uniform in (0, MaxDelay].
	DelayProb float64
	MaxDelay  time.Duration
	// DupProb asks for a message to be delivered twice (the transport
	// only honors it for messages that are safe to duplicate).
	DupProb float64
	// SyncFailEvery makes every Nth durability sync fail (0 = never) —
	// the disk-side counterpart to the wire faults.
	SyncFailEvery int
	// CorruptResultProb flips bits in a result payload (Result or
	// FlushResult block data) — the lying-worker fault: the corruption
	// happens after wire decode, so checksums pass and only algorithmic
	// verification can catch it.
	CorruptResultProb float64
	// CorruptOperandProb flips bits in an operand payload (Assign or Set
	// block data) on the way to a worker — poisoned inputs rather than
	// poisoned answers.
	CorruptOperandProb float64
}

// FaultDecision is the schedule's verdict for one message.
type FaultDecision struct {
	Drop  bool
	Dup   bool
	Delay time.Duration
	// CorruptResult / CorruptOperand ask the transport to flip a bit in
	// the message's result / operand payload (only honored on messages
	// that carry one). CorruptPick seeds which block and element the
	// transport targets, so the flip itself is deterministic too.
	CorruptResult  bool
	CorruptOperand bool
	CorruptPick    uint64
}

// FaultCounts tallies what a plan actually injected.
type FaultCounts struct {
	Messages int
	Drops    int
	Delays   int
	Dups     int
	Syncs    int // sync calls seen
	SyncErrs int // sync calls failed
	Corrupts int // corruption verdicts drawn
	// ResultFlips / OperandFlips count the corruptions a transport
	// actually applied (a verdict on a message without a matching
	// payload is a no-op and is not counted here).
	ResultFlips  int
	OperandFlips int
}

// FaultPlan is a deterministic, seeded fault schedule shared by the
// fault-injection harness: every transport wrapping the same plan draws
// decisions from one rng stream, so a failing run is reproducible from
// its seed alone. Safe for concurrent use.
type FaultPlan struct {
	mu      sync.Mutex
	cfg     FaultConfig
	rng     *rand.Rand
	counts  FaultCounts
	stopped bool
}

// NewFaultPlan builds a plan from cfg (rng seeded with cfg.Seed).
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	return &FaultPlan{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next draws the decision for the next message. Drop wins over delay and
// duplication — a killed connection delivers nothing. After Stop every
// decision is fault-free and uncounted.
func (p *FaultPlan) Next() FaultDecision {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return FaultDecision{}
	}
	p.counts.Messages++
	var d FaultDecision
	if p.cfg.DropProb > 0 && p.rng.Float64() < p.cfg.DropProb {
		p.counts.Drops++
		d.Drop = true
		return d
	}
	if p.cfg.DelayProb > 0 && p.rng.Float64() < p.cfg.DelayProb && p.cfg.MaxDelay > 0 {
		p.counts.Delays++
		d.Delay = time.Duration(1 + p.rng.Int63n(int64(p.cfg.MaxDelay)))
	}
	if p.cfg.DupProb > 0 && p.rng.Float64() < p.cfg.DupProb {
		p.counts.Dups++
		d.Dup = true
	}
	// Corruption draws come last and are gated on their probabilities, so
	// plans that don't ask for corruption consume exactly the historical
	// rng stream (seeded tests stay reproducible across this extension).
	if p.cfg.CorruptResultProb > 0 && p.rng.Float64() < p.cfg.CorruptResultProb {
		p.counts.Corrupts++
		d.CorruptResult = true
		d.CorruptPick = p.rng.Uint64()
	}
	if p.cfg.CorruptOperandProb > 0 && p.rng.Float64() < p.cfg.CorruptOperandProb {
		p.counts.Corrupts++
		d.CorruptOperand = true
		if d.CorruptPick == 0 {
			d.CorruptPick = p.rng.Uint64()
		}
	}
	return d
}

// Stop ends the schedule for every transport sharing the plan, so a
// harness can shut its system down without a fault it did not mean:
// a connection killed at shutdown would leave its worker redialling a
// server that is gone.
func (p *FaultPlan) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
}

// CorruptionApplied records that a transport actually flipped a bit in
// a result (true) or operand (false) payload.
func (p *FaultPlan) CorruptionApplied(result bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if result {
		p.counts.ResultFlips++
	} else {
		p.counts.OperandFlips++
	}
}

// SyncErr implements the durability-fault side: it returns an error on
// every SyncFailEvery-th call, for wiring into store.Options.Sync ahead
// of the real fsync.
func (p *FaultPlan) SyncErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts.Syncs++
	if p.cfg.SyncFailEvery > 0 && p.counts.Syncs%p.cfg.SyncFailEvery == 0 {
		p.counts.SyncErrs++
		return fmt.Errorf("sim: injected fsync failure (call %d)", p.counts.Syncs)
	}
	return nil
}

// Counts snapshots the injected-fault tally.
func (p *FaultPlan) Counts() FaultCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}
