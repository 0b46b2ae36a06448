//go:build !race

package automap_test

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
