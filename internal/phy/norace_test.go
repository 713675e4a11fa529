//go:build !race

package phy

// raceEnabled reports a -race build, whose instrumentation makes the
// exhaustive oracle sweeps too slow to run whole.
const raceEnabled = false
