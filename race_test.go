//go:build race

package automap_test

// raceEnabled reports a race-detector build.
const raceEnabled = true
