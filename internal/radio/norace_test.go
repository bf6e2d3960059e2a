//go:build !race

package radio

const raceEnabled = false
