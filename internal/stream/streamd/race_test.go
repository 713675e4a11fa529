//go:build race

package streamd

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
