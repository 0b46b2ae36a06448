//go:build race

package sim

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// share of the items put back on purpose, so pooled scratch reallocates.
const raceEnabled = true
