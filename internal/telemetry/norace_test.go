//go:build !race

package telemetry

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
