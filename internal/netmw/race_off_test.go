//go:build !race

package netmw

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops a random fraction of Puts, so tests must
// not assert deterministic recycling there.
const raceEnabled = false
