package cluster

import (
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// WorkerInfo is a snapshot of one registered worker.
type WorkerInfo struct {
	ID       string
	Mem      int // advertised capacity in q×q blocks
	Slots    int // concurrent tasks the worker pipelines
	LastSeen time.Time
	Dead     bool
	Inflight int // tasks currently assigned
	Done     int // tasks completed over the worker's lifetime
	Sessions int // connections this ID has made (1 = never reconnected)

	// Delta-protocol accounting across the worker's lifetime (summed
	// over sessions; reconnects keep the cumulative totals even though
	// each new session's cache starts cold).
	BlocksShipped int64 // operand blocks sent with payload
	BlocksSkipped int64 // operand blocks served from the resident cache
	BytesSaved    int64 // payload bytes the skips avoided

	// Session counterparts cover only the current incarnation, so the
	// hit rate is measured against a cache that actually existed (a
	// reconnect starts cold and must not dilute — or inflate — the
	// lifetime denominator).
	SessBlocksShipped int64
	SessBlocksSkipped int64

	// FlushedBlocks counts the worker's C blocks committed over its
	// lifetime.
	FlushedBlocks int64

	// Wire-byte accounting from the transport's per-conn counters, as
	// reported once per session when it closes (Session.Close); the
	// totals carry across reconnects.
	WireBytesOut int64 // master→worker frames
	WireBytesIn  int64 // worker→master frames

	// Profile is the worker's live speed/bandwidth estimate; zero-valued
	// (ComputeSamples == 0) until the first timing sample lands.
	Profile stats.Profile

	// Result-integrity accounting. Strikes counts tasks refused after a
	// confirmed verification failure; VerifyFailures counts the refused
	// tiles; TransportFaults counts wire-CRC faults reported against the
	// worker's connection (counted only, no strikes). Quarantined marks a
	// worker parked past the strike threshold.
	Strikes         int
	VerifyFailures  int
	TransportFaults int
	Quarantined     bool
}

// CacheHitRate returns the fraction of operand blocks the resident
// cache absorbed over the worker's lifetime.
func (wi WorkerInfo) CacheHitRate() float64 {
	total := wi.BlocksShipped + wi.BlocksSkipped
	if total == 0 {
		return 0
	}
	return float64(wi.BlocksSkipped) / float64(total)
}

// SessionCacheHitRate returns the hit fraction for the current
// incarnation only.
func (wi WorkerInfo) SessionCacheHitRate() float64 {
	total := wi.SessBlocksShipped + wi.SessBlocksSkipped
	if total == 0 {
		return 0
	}
	return float64(wi.SessBlocksSkipped) / float64(total)
}

// workerState is the registry's live record of one worker. All access is
// guarded by the owning Cluster's mutex.
type workerState struct {
	id       string
	epoch    uint64 // incarnation number; bumped on every (re)join
	mem      int
	slots    int // max concurrent tasks (≥ 1)
	lastSeen time.Time
	dead     bool
	inflight map[engine.AssignID]*Task
	done     int
	sessions int
	// lastAt remembers the coordinates of the worker's previous chunk
	// per job, for locality-aware dispatch.
	lastAt map[JobID][2]int
	// Cumulative delta-protocol totals, carried across incarnations.
	blocksShipped int64
	blocksSkipped int64
	bytesSaved    int64
	// Current-incarnation totals; reset to zero on every (re)join.
	sessShipped int64
	sessSkipped int64
	// Wire-byte totals (Session.Close), carried across incarnations.
	wireOut int64
	wireIn  int64
	// flushed counts C blocks committed from the worker's Results over
	// its lifetime (carried across incarnations).
	flushed int64
	// Result-integrity state, carried across incarnations — a corrupt
	// worker must not launder its strikes by reconnecting.
	strikes         int
	verifyFails     int
	transportFaults int
	quarantined     bool
}

// registry is the membership table: join/leave plus heartbeat-based
// failure detection. It does no locking of its own — every method is
// called with the owning Cluster's mutex held.
type registry struct {
	workers map[string]*workerState
	lost    int    // workers ever declared dead
	joins   uint64 // monotonic incarnation counter across all ids
}

func newRegistry() *registry {
	return &registry{workers: make(map[string]*workerState)}
}

// join registers a worker. Re-joining under a live or dead ID replaces the
// old incarnation; the caller requeues the old incarnation's tasks first.
// Lifetime totals (comm, done, flushed) carry over so operability stats
// survive blips; session counters start at zero because the new
// incarnation's caches start cold.
func (r *registry) join(id string, mem, slots int, now time.Time) *workerState {
	if slots < 1 {
		slots = 1
	}
	r.joins++
	w := &workerState{
		id: id, epoch: r.joins, mem: mem, slots: slots, lastSeen: now,
		inflight: make(map[engine.AssignID]*Task),
		sessions: 1,
	}
	if old := r.workers[id]; old != nil {
		w.blocksShipped = old.blocksShipped
		w.blocksSkipped = old.blocksSkipped
		w.bytesSaved = old.bytesSaved
		w.wireOut = old.wireOut
		w.wireIn = old.wireIn
		w.done = old.done
		w.flushed = old.flushed
		w.sessions = old.sessions + 1
		w.strikes = old.strikes
		w.verifyFails = old.verifyFails
		w.transportFaults = old.transportFaults
	}
	r.workers[id] = w
	return w
}

// expired returns the live workers whose last heartbeat is older than
// timeout at time now.
func (r *registry) expired(now time.Time, timeout time.Duration) []*workerState {
	var out []*workerState
	for _, w := range r.workers {
		if !w.dead && now.Sub(w.lastSeen) > timeout {
			out = append(out, w)
		}
	}
	return out
}

// alive counts the live workers.
func (r *registry) alive() int {
	n := 0
	for _, w := range r.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// snapshot copies the registry for Status reporting.
func (r *registry) snapshot() []WorkerInfo {
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			ID: w.id, Mem: w.mem, Slots: w.slots, LastSeen: w.lastSeen,
			Dead: w.dead, Inflight: len(w.inflight), Done: w.done,
			Sessions:      w.sessions,
			BlocksShipped: w.blocksShipped, BlocksSkipped: w.blocksSkipped,
			BytesSaved:        w.bytesSaved,
			SessBlocksShipped: w.sessShipped, SessBlocksSkipped: w.sessSkipped,
			FlushedBlocks: w.flushed,
			WireBytesOut:  w.wireOut, WireBytesIn: w.wireIn,
			Strikes:         w.strikes,
			VerifyFailures:  w.verifyFails,
			TransportFaults: w.transportFaults,
			Quarantined:     w.quarantined,
		})
	}
	return out
}
