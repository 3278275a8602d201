package netmw

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
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
	// CorruptResultProb flips bits in a Result's tile — the
	// lying-worker fault: the corruption happens after wire decode, so
	// checksums pass and only algorithmic verification can catch it.
	CorruptResultProb float64
}

// FaultDecision is the schedule's verdict for one message.
type FaultDecision struct {
	Drop  bool
	Dup   bool
	Delay time.Duration
	// CorruptResult asks the transport to flip a bit in the message's
	// result payload (only honored on a Result). CorruptPick seeds
	// which block and element the transport targets, so the flip itself
	// is deterministic too.
	CorruptResult bool
	CorruptPick   uint64
}

// FaultCounts tallies what a plan actually injected.
type FaultCounts struct {
	Messages int
	Drops    int
	Delays   int
	Dups     int
	Corrupts int // corruption verdicts drawn
	// ResultFlips counts the corruptions a transport actually applied (a
	// verdict on a message without a result payload is a no-op and is
	// not counted here).
	ResultFlips int
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
	// The corruption draw comes last and is gated on its probability, so
	// a plan that doesn't ask for corruption consumes exactly the
	// drop/delay/dup stream.
	if p.cfg.CorruptResultProb > 0 && p.rng.Float64() < p.cfg.CorruptResultProb {
		p.counts.Corrupts++
		d.CorruptResult = true
		d.CorruptPick = p.rng.Uint64()
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

// resultFlipped records that a transport actually flipped a bit in a
// result payload.
func (p *FaultPlan) resultFlipped() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts.ResultFlips++
}

// Counts snapshots the injected-fault tally.
func (p *FaultPlan) Counts() FaultCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts
}

// FaultTransport wraps an engine.Transport with a seeded fault schedule
// (FaultPlan): messages may be delayed, the connection may be killed
// at any message boundary, ownership-free messages may be delivered
// twice, and a received Result may have a bit flipped in its tile. It
// is the
// harness behind the recovery and result-integrity tests, and injects
// only the faults they ask for — plugged into a cluster server via
// ClusterServerConfig.WrapTransport, it subjects the master↔worker
// protocol to the failures the retry/requeue and verification
// machinery claim to survive, deterministically per seed.
//
// A Drop decision closes the underlying transport and returns an error:
// on TCP a fault is a dead connection, not a silently skipped frame
// (skipping one message of a framed stream would desynchronize the
// protocol in a way no real network does). Duplication is only honored
// for messages whose delivery twice is semantically possible and
// ownership-free — requests and byes; assignments, sets
// and results hand buffer ownership to the receiver, so replaying the
// same value twice would be a use-after-transfer, and a real sender
// never emits them twice on one live connection anyway.
type FaultTransport struct {
	inner engine.Transport
	plan  *FaultPlan
}

// NewFaultTransport wraps inner with plan's schedule.
func NewFaultTransport(inner engine.Transport, plan *FaultPlan) *FaultTransport {
	return &FaultTransport{inner: inner, plan: plan}
}

// errInjectedDrop reports a scheduled connection kill.
var errInjectedDrop = fmt.Errorf("netmw: injected connection drop (fault plan)")

// apply draws the decision for m: a drop closes the connection, a delay
// sleeps here, and a dup stands only for an ownership-free message.
func (t *FaultTransport) apply(m engine.Msg) (d FaultDecision, err error) {
	d = t.plan.Next()
	if d.Drop {
		t.inner.Close()
		return d, errInjectedDrop
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.Dup {
		switch m.(type) {
		case *engine.Request, engine.Bye:
		default:
			d.Dup = false
		}
	}
	return d, nil
}

// Send applies the schedule, then forwards (twice for an honored dup).
func (t *FaultTransport) Send(m engine.Msg) error {
	d, err := t.apply(m)
	if err != nil {
		return err
	}
	if err := t.inner.Send(m); err != nil {
		return err
	}
	if d.Dup {
		return t.inner.Send(m)
	}
	return nil
}

// Recv applies drop/delay to the incoming side (duplication would have
// to re-deliver a buffer the caller already owns, so it is send-only).
// A result-corruption verdict flips a bit in a Result's tile after
// decode: the wire CRC has already passed, so the flip
// models a worker whose compute (or RAM) lies — exactly the fault class
// Freivalds verification, not checksumming, must catch.
func (t *FaultTransport) Recv() (engine.Msg, error) {
	m, err := t.inner.Recv()
	if err != nil {
		return m, err
	}
	d, err := t.apply(m)
	if err != nil {
		return nil, err
	}
	if r, ok := m.(*engine.Result); ok && d.CorruptResult && corruptBlocks(r.Blocks, d.CorruptPick) {
		t.plan.resultFlipped()
	}
	return m, nil
}

// corruptBlocks flips the top exponent bit of one nonzero element,
// scanning from a pick-seeded offset (flipping a zero would yield a
// subnormal no verifier could — or should need to — see, so zeros are
// skipped). Returns whether a flip landed.
func corruptBlocks(blocks [][]float64, pick uint64) bool {
	if len(blocks) == 0 {
		return false
	}
	for n := 0; n < len(blocks); n++ {
		blk := blocks[(n+int(pick%uint64(len(blocks))))%len(blocks)]
		if len(blk) == 0 {
			continue
		}
		start := int((pick >> 20) % uint64(len(blk)))
		for i := 0; i < len(blk); i++ {
			at := (start + i) % len(blk)
			if blk[at] != 0 {
				blk[at] = flipBit62(blk[at])
				return true
			}
		}
	}
	return false
}

// flipBit62 flips the top exponent bit: a numerically massive change on
// any nonzero value, so the corruption is never lost in rounding noise.
func flipBit62(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << 62))
}

// Close closes the wrapped transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }
