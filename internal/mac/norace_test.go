//go:build !race

package mac

const raceEnabled = false
