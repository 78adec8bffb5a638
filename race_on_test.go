//go:build race

package opalperf

// raceEnabled reports whether the tests were built with the race detector,
// whose instrumentation allocates where the optimized build does not.
const raceEnabled = true
