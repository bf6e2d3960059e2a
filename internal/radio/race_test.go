//go:build race

package radio

// raceEnabled reports a -race build, whose instrumentation allocates;
// allocation-budget tests skip under it.
const raceEnabled = true
