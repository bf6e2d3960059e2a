//go:build race

package sim

// raceEnabled reports a -race build, whose instrumentation allocates;
// allocation-budget tests skip under it.
const raceEnabled = true
