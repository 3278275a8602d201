// Package steady implements the bandwidth-centric steady-state analysis of
// §6.1 of the paper.
//
// Each enrolled worker P_i must receive δ_i = 2µ_i·t·c_i blocks to perform
// φ_i = t·µ_i²·w_i computations. Writing x_i for the C blocks computed per
// time unit and y_i for the operand blocks received per time unit, the
// steady state is the linear program
//
//	maximize   Σ x_i
//	subject to Σ y_i·c_i ≤ 1,  x_i·w_i ≤ 1,  x_i/µ_i² ≤ y_i/(2µ_i).
//
// The optimal solution is bandwidth-centric: sort workers by non-decreasing
// 2c_i/µ_i and enroll them while Σ 2c_i/(µ_i·w_i) ≤ 1; the last enrolled
// worker may be enrolled fractionally. The achieved throughput is
// ρ = Σ_enrolled x_i with x_i = 1/w_i for fully enrolled workers.
//
// The package also demonstrates the paper's caveat (Table 1): the
// steady-state solution may be infeasible with bounded buffers, which is
// why §6.2 falls back to incremental, simulation-driven selection. The
// steady-state throughput remains a valid upper bound.
package steady

import (
	"fmt"
	"sort"

	"repro/internal/platform"
)

// Share is the steady-state activity of one worker.
type Share struct {
	Worker   int     // 0-based worker index
	Mu       int     // chunk parameter µ_i
	X        float64 // C blocks computed per time unit
	Y        float64 // operand blocks received per time unit
	PortLoad float64 // fraction of master port consumed: y_i · c_i
	Partial  bool    // true if enrolled fractionally (port saturated)
}

// Solution is the closed-form optimum of the steady-state linear program.
type Solution struct {
	Shares     []Share
	Throughput float64 // ρ = Σ x_i (block updates per time unit)
	PortUsed   float64 // Σ y_i c_i ≤ 1
}

// Solve computes the bandwidth-centric solution for the platform, using
// µ_i from the overlapped layout of each worker's memory (µ_i² + 4µ_i ≤
// m_i). Workers whose memory cannot hold even µ = 1 are skipped.
func Solve(pl *platform.Platform) (Solution, error) {
	if err := pl.Validate(); err != nil {
		return Solution{}, err
	}
	mus := pl.Mus()
	type item struct {
		w    int
		key  float64 // 2c_i/µ_i, the port cost per unit of enabled work rate
		load float64 // 2c_i/(µ_i w_i), port fraction if fully enrolled
	}
	var items []item
	for i, wk := range pl.Workers {
		if mus[i] < 1 {
			continue
		}
		mu := float64(mus[i])
		items = append(items, item{
			w:    i,
			key:  2 * wk.C / mu,
			load: 2 * wk.C / (mu * wk.W),
		})
	}
	if len(items) == 0 {
		return Solution{}, fmt.Errorf("steady: no worker has enough memory (µ_i ≥ 1)")
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].key != items[b].key {
			return items[a].key < items[b].key
		}
		return items[a].w < items[b].w
	})

	var sol Solution
	port := 0.0
	for _, it := range items {
		wk := pl.Workers[it.w]
		mu := float64(mus[it.w])
		sh := Share{Worker: it.w, Mu: mus[it.w]}
		if port+it.load <= 1+1e-12 {
			sh.X = 1 / wk.W
			sh.Y = 2 * sh.X / mu
			sh.PortLoad = it.load
			port += it.load
		} else if port < 1 {
			// fractional enrollment saturates the port
			frac := (1 - port) / it.load
			sh.X = frac / wk.W
			sh.Y = 2 * sh.X / mu
			sh.PortLoad = 1 - port
			sh.Partial = true
			port = 1
		}
		if sh.X > 0 {
			sol.Throughput += sh.X
		}
		sol.Shares = append(sol.Shares, sh)
		if port >= 1 {
			break
		}
	}
	sol.PortUsed = port
	return sol, nil
}

// BufferDemand estimates, for worker i of the solution, how many operand
// block buffers the worker would need to sustain its steady-state rate
// while the master serves the other enrolled workers between two of its
// own services. This is the quantity that explodes in the Table 1 example:
// a fast worker must hoard blocks while the port is busy with a slow one.
//
// The master serves worker i every 1/(y_i·c_i · (1/c_i)) ... concretely: in
// steady state worker i receives a burst of 2µ_i blocks every
// T_i = 2µ_i/y_i time units, while consuming 2µ_i blocks every µ_i²·w_i
// time units. During the longest gap between services — the time the port
// spends on all other workers' bursts — the worker must keep computing
// from buffered operands. The demand is the number of blocks consumed over
// that gap.
func BufferDemand(pl *platform.Platform, sol Solution, worker int) float64 {
	mus := pl.Mus()
	var gap float64 // time the port spends on one burst of every other worker
	for _, sh := range sol.Shares {
		if sh.X <= 0 || sh.Worker == worker {
			continue
		}
		gap += 2 * float64(mus[sh.Worker]) * pl.Workers[sh.Worker].C
	}
	w := pl.Workers[worker]
	mu := float64(mus[worker])
	if mu == 0 || w.W == 0 {
		return 0
	}
	consumptionRate := 2 * mu / (mu * mu * w.W) // blocks consumed per time unit
	return gap * consumptionRate
}

// Feasible reports whether every enrolled worker's buffer demand fits its
// memory (operand staging area of the overlapped layout, 4µ_i blocks).
// Table 1's platform returns false.
func Feasible(pl *platform.Platform, sol Solution) bool {
	mus := pl.Mus()
	for _, sh := range sol.Shares {
		if sh.X <= 0 {
			continue
		}
		if BufferDemand(pl, sol, sh.Worker) > 4*float64(mus[sh.Worker])+1e-9 {
			return false
		}
	}
	return true
}
