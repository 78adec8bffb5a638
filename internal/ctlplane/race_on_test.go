//go:build race

package ctlplane

// raceEnabled reports whether the tests were built with the race detector,
// whose instrumentation makes absolute host-time limits meaningless.
const raceEnabled = true
