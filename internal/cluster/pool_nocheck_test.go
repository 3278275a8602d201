//go:build !poolcheck

package cluster

// poolChecked is false without the poolcheck tag: a released block
// reads as it was, so no test can tell that it went back.
const poolChecked = false
