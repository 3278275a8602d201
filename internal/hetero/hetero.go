// Package hetero implements the incremental resource-selection algorithms
// for fully heterogeneous platforms of §6.2 of the paper.
//
// Because workers have different memories, each worker P_i works on square
// chunks of µ_i² C blocks (µ_i² + 4µ_i ≤ m_i). The bandwidth-centric
// steady-state solution of §6.1 may be infeasible with bounded buffers, so
// resource selection is performed through a step-by-step simulation
// (Algorithm 3): each elementary decision sends one "update set" of µ_i A
// blocks and µ_i B blocks (2µ_i·c_i time units on the one-port link),
// enabling µ_i² block updates (µ_i²·w_i time units on the worker).
//
// Three selection rules are provided:
//
//   - Global (Algorithm 3): pick the worker maximizing the ratio of the
//     total work assigned so far to the completion time of the last
//     communication.
//   - Local: pick the worker maximizing the ratio of the work enabled by
//     this communication to the time the link is monopolized by it.
//   - Two-step ahead (§6.2.1, last paragraph): pick the best ordered pair
//     of workers for the next two communications.
//
// The allocation phase assigns whole µ_i-wide column panels to workers; the
// execution phase then replays the selection sequence on the one-port
// simulator (internal/sim), adding the C-chunk I/O that the ratio analysis
// neglects. The demand-driven baseline they are compared against is the
// cluster scheduler itself, on the same simulator (fleet.RunOnePort).
package hetero

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/platform"
)

// Rule selects which incremental heuristic drives the allocation.
type Rule int

const (
	// Global is Algorithm 3 of the paper.
	Global Rule = iota
	// Local is the local selection algorithm of §6.2.2.
	Local
	// TwoStep is the two-step-ahead refinement of the global algorithm.
	TwoStep
)

func (r Rule) String() string {
	switch r {
	case Global:
		return "global"
	case Local:
		return "local"
	case TwoStep:
		return "two-step"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// State is the simulation state of Algorithm 3, exported so tests can
// replay the paper's worked example step by step.
type State struct {
	Mus            []int     // µ_i per worker (0 ⇒ worker unusable)
	CompletionTime float64   // completion time of the last communication
	TotalWork      float64   // total block updates assigned so far
	Ready          []float64 // per-worker completion of assigned work
	NbBlock        []int64   // per-worker A+B blocks sent
	Selections     []int     // sequence of selected workers
}

// NewState initializes the selection simulation for a platform.
func NewState(pl *platform.Platform) *State {
	return &State{
		Mus:     pl.Mus(),
		Ready:   make([]float64, pl.P()),
		NbBlock: make([]int64, pl.P()),
	}
}

// Ratio returns the current figure of merit total-work / completion-time
// (the asymptotic value 1.17 in the worked example of Table 2).
func (s *State) Ratio() float64 {
	if s.CompletionTime == 0 {
		return 0
	}
	return s.TotalWork / s.CompletionTime
}

// globalScore is the argmax objective of Algorithm 3 for candidate i.
func (s *State) globalScore(pl *platform.Platform, i int) float64 {
	mu := float64(s.Mus[i])
	denom := math.Max(s.CompletionTime+2*mu*pl.Workers[i].C, s.Ready[i])
	if denom == 0 {
		return math.Inf(1)
	}
	return (s.TotalWork + mu*mu) / denom
}

// localScore is the objective of the local selection algorithm:
// µ_i² / max{2µ_i·c_i, ready_i − completion-time}.
func (s *State) localScore(pl *platform.Platform, i int) float64 {
	mu := float64(s.Mus[i])
	denom := math.Max(2*mu*pl.Workers[i].C, s.Ready[i]-s.CompletionTime)
	if denom == 0 {
		return math.Inf(1)
	}
	return mu * mu / denom
}

// apply commits the selection of worker i: one communication of 2µ_i
// blocks followed by µ_i² block updates, with the literal timing update of
// Algorithm 3 (the communication completes no earlier than the worker's
// ready time, which models the bounded staging buffers).
func (s *State) apply(pl *platform.Platform, i int) {
	mu := float64(s.Mus[i])
	s.TotalWork += mu * mu
	s.CompletionTime = math.Max(s.CompletionTime+2*mu*pl.Workers[i].C, s.Ready[i])
	s.Ready[i] = s.CompletionTime + mu*mu*pl.Workers[i].W
	s.NbBlock[i] += int64(2 * s.Mus[i])
	s.Selections = append(s.Selections, i)
}

// Step performs one selection under the given rule and returns the chosen
// worker. Two-step ahead commits two selections and returns the first.
func (s *State) Step(pl *platform.Platform, rule Rule) int {
	switch rule {
	case Global, Local:
		score := s.globalScore
		if rule == Local {
			score = s.localScore
		}
		best := s.argmax(pl, score)
		s.apply(pl, best)
		return best
	case TwoStep:
		bi, bestScore := -1, math.Inf(-1)
		for i := range pl.Workers {
			if s.Mus[i] < 1 {
				continue
			}
			for j := range pl.Workers {
				if s.Mus[j] < 1 {
					continue
				}
				trial := s.shallowClone()
				trial.apply(pl, i)
				trial.apply(pl, j)
				if sc := trial.Ratio(); sc > bestScore {
					bi, bestScore = i, sc
				}
			}
		}
		// Only the first selection of the best pair is committed; the
		// pair is re-evaluated at the next step ("search for the best
		// pair of workers to select for the next two communications").
		s.apply(pl, bi)
		return bi
	default:
		panic(fmt.Sprintf("hetero: unknown rule %v", rule))
	}
}

// argmax returns the usable worker (µ_i ≥ 1) of highest score, ties to
// the lower index.
func (s *State) argmax(pl *platform.Platform, score func(*platform.Platform, int) float64) int {
	best, bestScore := -1, math.Inf(-1)
	for i := range pl.Workers {
		if s.Mus[i] < 1 {
			continue
		}
		if sc := score(pl, i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	return best
}

func (s *State) shallowClone() *State {
	return &State{
		Mus:            s.Mus, // immutable
		CompletionTime: s.CompletionTime,
		TotalWork:      s.TotalWork,
		Ready:          append([]float64(nil), s.Ready...),
		NbBlock:        append([]int64(nil), s.NbBlock...),
	}
}

// Allocation is the result of the first phase: which worker owns each
// column panel and the full selection sequence to replay in phase two.
type Allocation struct {
	Rule       Rule
	Selections []int   // one entry per update-set communication
	Columns    []int   // worker owning each of the s block columns
	Panels     []Panel // per-worker panel summary
	Ratio      float64 // total-work / completion-time of the simulation
	Steps      int
}

// Panel summarizes the share of one worker.
type Panel struct {
	Worker  int
	Mu      int
	Columns int   // block columns owned
	Chunks  int   // µ_i×µ_i chunks processed (⌈r/µ_i⌉ per µ_i columns)
	Updates int64 // block updates performed
}

// Allocate runs the first phase of §6.2 for problem pr on platform pl:
// selections are simulated until every one of the s block columns of C has
// been allocated. Worker P_i earns one block column after being selected
// t·⌈r/µ_i⌉ times per µ_i columns (the paper's nb-column bookkeeping);
// allocation stops as soon as nb-column ≥ s and surplus selections are
// trimmed.
func Allocate(pl *platform.Platform, pr core.Problem, rule Rule) (*Allocation, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	st := NewState(pl)
	if slices.Max(st.Mus) < 1 {
		return nil, fmt.Errorf("hetero: no worker has memory for µ ≥ 1")
	}

	nbColumn := func() int {
		total := 0
		for i, nb := range st.NbBlock {
			if st.Mus[i] < 1 {
				continue
			}
			mui := int64(st.Mus[i])
			perColumnGroup := 2 * mui * int64(pr.T) * int64((pr.R+st.Mus[i]-1)/st.Mus[i])
			total += int(nb/perColumnGroup) * st.Mus[i]
		}
		return total
	}

	// Safety bound: the total number of update-set communications needed
	// if the slowest-enrolling worker did everything.
	maxSteps := 0
	for _, mu := range st.Mus {
		if mu < 1 {
			continue
		}
		chunksPerPanel := (pr.R + mu - 1) / mu
		panels := (pr.S + mu - 1) / mu
		maxSteps += panels * chunksPerPanel * pr.T
	}
	maxSteps = (maxSteps + 1) * 4

	for nbColumn() < pr.S {
		if len(st.Selections) > maxSteps {
			return nil, fmt.Errorf("hetero: allocation did not converge after %d steps", maxSteps)
		}
		st.Step(pl, rule)
	}

	alloc := &Allocation{
		Rule:       rule,
		Selections: st.Selections,
		Ratio:      st.Ratio(),
		Steps:      len(st.Selections),
	}

	// Assign concrete column indices left to right, in the order workers
	// completed column groups, then trim per-worker surplus work.
	alloc.Columns = make([]int, pr.S)
	for j := range alloc.Columns {
		alloc.Columns[j] = -1
	}
	earned := make([]int, pl.P()) // columns earned so far per worker
	progress := make([]int64, pl.P())
	nextCol := 0
	for _, w := range st.Selections {
		mu := st.Mus[w]
		progress[w] += int64(2 * mu)
		perColumnGroup := 2 * int64(mu) * int64(pr.T) * int64((pr.R+mu-1)/mu)
		for int64(earned[w]+mu)*perColumnGroup/int64(mu) <= progress[w] && nextCol < pr.S {
			// worker w completed another group of µ columns
			for k := 0; k < mu && nextCol < pr.S; k++ {
				alloc.Columns[nextCol] = w
				nextCol++
			}
			earned[w] += mu
		}
		if nextCol >= pr.S {
			break
		}
	}
	// Any residual columns (when the loop above exits on nb-column rounding)
	// go to the worker with the best local score, preserving termination.
	for j := 0; j < pr.S; j++ {
		if alloc.Columns[j] < 0 {
			alloc.Columns[j] = st.argmax(pl, st.localScore)
		}
	}

	alloc.Panels = make([]Panel, pl.P())
	for i := range alloc.Panels {
		alloc.Panels[i] = Panel{Worker: i, Mu: st.Mus[i]}
	}
	for _, w := range alloc.Columns {
		alloc.Panels[w].Columns++
	}
	for i := range alloc.Panels {
		p := &alloc.Panels[i]
		if p.Columns == 0 || p.Mu == 0 {
			continue
		}
		panelGroups := (p.Columns + p.Mu - 1) / p.Mu
		p.Chunks = panelGroups * ((pr.R + p.Mu - 1) / p.Mu)
		p.Updates = int64(p.Columns) * int64(pr.R) * int64(pr.T)
	}
	return alloc, nil
}
