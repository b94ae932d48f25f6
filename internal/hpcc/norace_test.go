//go:build !race

package hpcc

// raceEnabled reports a race-detector build, whose instrumentation changes
// what allocates.
const raceEnabled = false
