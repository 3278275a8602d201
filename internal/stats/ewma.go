package stats

import (
	"fmt"
	"sync"
	"time"
)

// ewmaAlpha is the weight of a new observation in every EWMA.
const ewmaAlpha = 0.25

// EWMA is an exponentially-weighted moving average: the online estimator
// the adaptive scheduler uses to track per-worker rates. The first
// observation seeds the value; later observations fold in with weight
// ewmaAlpha, so the estimate tracks drift (a worker slowing down
// mid-job) while damping single-task noise.
type EWMA struct {
	v float64
	n int
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = ewmaAlpha*x + (1-ewmaAlpha)*e.v
	}
	e.n++
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.v }

// Samples returns how many observations have been folded in.
func (e *EWMA) Samples() int { return e.n }

// Profile is a point-in-time snapshot of one worker's estimated rates:
// compute speed from per-task timings and wire bandwidth from the
// per-conn byte counters. A worker with zero samples in a dimension has a zero estimate
// there — consumers must treat that as "unknown", not "infinitely slow".
type Profile struct {
	Worker string
	Epoch  uint64 // incarnation the latest sample came from

	UpdatesPerSec float64 // block updates per second (compute speed)
	BytesPerSec   float64 // wire bytes per second (link bandwidth)

	ComputeSamples int
	CommSamples    int
}

func (p Profile) String() string {
	return fmt.Sprintf("speed=%.3g upd/s bw=%.3g B/s (samples %d/%d)",
		p.UpdatesPerSec, p.BytesPerSec, p.ComputeSamples, p.CommSamples)
}

// Estimator maintains live per-worker profiles for the adaptive
// scheduler. It is safe for concurrent use.
//
// Samples carry the worker's incarnation epoch (cluster registry
// epochs): a sample from an epoch older than the newest one seen for
// that worker is dropped — a stale session tearing down after a
// reconnect cannot pollute the live incarnation's estimate — while the
// EWMA state itself survives reconnects, so a rejoining worker keeps
// its learned profile instead of starting cold. Epoch 0 skips the pin
// (single-session callers and simulators).
type Estimator struct {
	mu      sync.Mutex
	workers map[string]*workerEst
}

type workerEst struct {
	epoch     uint64
	speed, bw EWMA
}

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{workers: make(map[string]*workerEst)}
}

// get returns the record for id, creating it on first use, and applies
// the epoch pin: nil means the sample is stale and must be dropped.
func (e *Estimator) get(id string, epoch uint64) *workerEst {
	w := e.workers[id]
	if w == nil {
		w = &workerEst{}
		e.workers[id] = w
	}
	if epoch != 0 {
		if epoch < w.epoch {
			return nil // stale incarnation
		}
		w.epoch = epoch
	}
	return w
}

// ObserveCompute folds one task's compute timing into the worker's
// speed estimate: updates block updates took elapsed.
func (e *Estimator) ObserveCompute(id string, epoch uint64, updates int64, elapsed time.Duration) {
	if updates <= 0 || elapsed <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.get(id, epoch); w != nil {
		w.speed.Observe(float64(updates) / elapsed.Seconds())
	}
}

// ObserveTransfer folds one measured transfer (or one session's wire
// totals) into the worker's bandwidth estimate.
func (e *Estimator) ObserveTransfer(id string, epoch uint64, bytes int64, elapsed time.Duration) {
	if bytes <= 0 || elapsed <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.get(id, epoch); w != nil {
		w.bw.Observe(float64(bytes) / elapsed.Seconds())
	}
}

// Profile snapshots the worker's current estimate; ok is false when the
// worker has never been observed.
func (e *Estimator) Profile(id string) (Profile, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.workers[id]
	if w == nil {
		return Profile{Worker: id}, false
	}
	return Profile{
		Worker:         id,
		Epoch:          w.epoch,
		UpdatesPerSec:  w.speed.Value(),
		BytesPerSec:    w.bw.Value(),
		ComputeSamples: w.speed.Samples(),
		CommSamples:    w.bw.Samples(),
	}, true
}
