//go:build !race

package opalperf

const raceEnabled = false
