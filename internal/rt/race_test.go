//go:build race

package rt

// raceEnabled reports a -race build, whose instrumentation allocates;
// allocation-budget tests skip under it.
const raceEnabled = true
