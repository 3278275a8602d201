package sim

import "math"

// SequencePolicy replays a fixed communication order (worker, kind)
// regardless of timing: the master waits for each operation's precondition
// in turn, exactly like the static programs of Algorithms 1 and 2. The
// step index of SendAB operations is implied by progress and not matched.
// A sequence that runs out while work remains, or whose next op is not a
// legal candidate, picks -1, so Run fails instead of guessing.
type SequencePolicy struct {
	name string
	ops  []SeqOp
	pos  int
}

// SeqOp is one entry of a static communication order.
type SeqOp struct {
	Worker int
	Kind   OpKind
}

// NewSequencePolicy builds a static policy from an explicit op order.
func NewSequencePolicy(name string, ops []SeqOp) *SequencePolicy {
	return &SequencePolicy{name: name, ops: ops}
}

// Name implements Policy.
func (p *SequencePolicy) Name() string { return p.name }

// Pick implements Policy.
func (p *SequencePolicy) Pick(now float64, cands []Candidate) int {
	if p.pos >= len(p.ops) {
		return -1
	}
	want := p.ops[p.pos]
	for i, c := range cands {
		if c.Worker == want.Worker && c.Kind == want.Kind {
			p.pos++
			return i
		}
	}
	// Every legal next op is always offered, so the sequence itself is
	// inconsistent with the chunk state.
	return -1
}

// Remaining reports how many sequence entries were never consumed.
func (p *SequencePolicy) Remaining() int { return len(p.ops) - p.pos }

// DemandRule selects the candidate-ranking rule of a demand-driven policy.
type DemandRule int

const (
	// FirstToReceive picks the candidate whose transfer completes
	// earliest — the worker that "can receive it" first (ODDOML/OBMM).
	FirstToReceive DemandRule = iota
	// FirstToCompute picks the candidate whose worker runs out of
	// compute work earliest — the worker "free for computation"
	// (DDOML/BMM).
	FirstToCompute
	// MinMinStart picks the candidate minimizing when the *delivered
	// work* could start computing, the OMMOML rule.
	MinMinStart
)

// DemandPolicy is a dynamic policy ranking candidates by a DemandRule.
// Result retrieval is prioritized when a worker has a finished chunk and
// the port would otherwise idle, so workers cycle onto their next chunk.
type DemandPolicy struct {
	name string
	rule DemandRule
}

// NewDemandPolicy builds a demand-driven policy.
func NewDemandPolicy(name string, rule DemandRule) *DemandPolicy {
	return &DemandPolicy{name: name, rule: rule}
}

// Name implements Policy.
func (p *DemandPolicy) Name() string { return p.name }

// Pick implements Policy.
func (p *DemandPolicy) Pick(now float64, cands []Candidate) int {
	best := -1
	bestKey := math.Inf(1)
	for i, c := range cands {
		var key float64
		switch p.rule {
		case FirstToReceive:
			// first-come-first-served on readiness to receive: the
			// worker whose buffer/idleness request is oldest is served
			// first (result retrievals queue the same way).
			key = c.ReadySince
		case FirstToCompute:
			// the worker that runs out of compute work first is served
			// first; result retrievals are requests made at chunk
			// completion time.
			key = c.ComputeIdleAt
			if c.Kind == RecvC {
				key = c.ReadySince
			}
		case MinMinStart:
			// when could the delivered work start computing
			key = math.Max(c.End, c.ComputeIdleAt)
			if c.Kind == RecvC {
				key = c.Start
			}
		default:
			key = c.End
		}
		if key < bestKey-1e-12 || (math.Abs(key-bestKey) <= 1e-12 && better(c, cands[best])) {
			best, bestKey = i, key
		}
	}
	return best
}

// better breaks exact ties deterministically: sends before receives, then
// lower worker index, then lower step.
func better(a, b Candidate) bool {
	ra, rb := a.Kind == RecvC, b.Kind == RecvC
	if ra != rb {
		return !ra
	}
	if a.Worker != b.Worker {
		return a.Worker < b.Worker
	}
	return a.Step < b.Step
}
