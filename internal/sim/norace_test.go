//go:build !race

package sim

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
