//go:build race

package sim

// raceEnabled reports a race-detector build, whose instrumentation is not
// the product's allocation behaviour, so allocation counts are not pinned
// under it.
const raceEnabled = true
