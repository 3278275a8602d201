//go:build poolcheck

package cluster

// poolChecked says the pool checks its hand-offs (engine's poolcheck
// tag): a block put back reads as NaN poison, so a test can tell that a
// job's blocks were released.
const poolChecked = true
