package netmw

import (
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// FaultTransport wraps an engine.Transport with a seeded fault schedule
// (sim.FaultPlan): messages may be delayed, the connection may be killed
// at any message boundary, and ownership-free messages may be delivered
// twice. It is the harness behind the recovery tests — plugged into a
// cluster server via ClusterServerConfig.WrapTransport, it subjects the
// master↔worker protocol to the failures the retry/requeue machinery
// claims to survive, deterministically per seed.
//
// A Drop decision closes the underlying transport and returns an error:
// on TCP a fault is a dead connection, not a silently skipped frame
// (skipping one message of a framed stream would desynchronize the
// protocol in a way no real network does). Duplication is only honored
// for messages whose delivery twice is semantically possible and
// ownership-free — requests, flush commands and byes; assignments, sets
// and results hand buffer ownership to the receiver, so replaying the
// same value twice would be a use-after-transfer, and a real sender
// never emits them twice on one live connection anyway.
type FaultTransport struct {
	inner engine.Transport
	plan  *sim.FaultPlan
}

// NewFaultTransport wraps inner with plan's schedule.
func NewFaultTransport(inner engine.Transport, plan *sim.FaultPlan) *FaultTransport {
	return &FaultTransport{inner: inner, plan: plan}
}

// errInjectedDrop reports a scheduled connection kill.
var errInjectedDrop = fmt.Errorf("netmw: injected connection drop (fault plan)")

func (t *FaultTransport) apply(m engine.Msg) (d sim.FaultDecision, err error) {
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
		case *engine.Request, engine.Flush, engine.Bye:
		default:
			d.Dup = false
		}
	}
	return d, nil
}

// Send applies the schedule, then forwards (twice for an honored dup).
// An operand-corruption verdict flips a bit in an Assign or Set payload
// before it goes out — poisoned inputs on the way to the worker.
func (t *FaultTransport) Send(m engine.Msg) error {
	d, err := t.apply(m)
	if err != nil {
		return err
	}
	if d.CorruptOperand {
		// Only Assign payloads are flipped: Set blocks are the job's own
		// operand blocks, sent from their memory to every worker that
		// needs them, so a flip there would replay to the whole fleet and
		// destroy per-worker fault attribution.
		if a, ok := m.(*engine.Assign); ok && corruptBlocks(a.Blocks, d.CorruptPick) {
			t.plan.CorruptionApplied(false)
		}
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
// A result-corruption verdict flips a bit in a Result or FlushResult
// payload after decode: the wire CRC has already passed, so the flip
// models a worker whose compute (or RAM) lies — exactly the fault class
// Freivalds verification, not checksumming, must catch.
func (t *FaultTransport) Recv() (engine.Msg, error) {
	m, err := t.inner.Recv()
	if err != nil {
		return m, err
	}
	d := t.plan.Next()
	if d.Drop {
		t.inner.Close()
		return nil, errInjectedDrop
	}
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	if d.CorruptResult {
		switch r := m.(type) {
		case *engine.Result:
			if corruptBlocks(r.Blocks, d.CorruptPick) {
				t.plan.CorruptionApplied(true)
			}
		case *engine.FlushResult:
			if corruptBlocks(r.Blocks, d.CorruptPick) {
				t.plan.CorruptionApplied(true)
			}
		}
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
