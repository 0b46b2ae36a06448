package main

import (
	"testing"

	"automap/internal/loadgen"
)

func TestPatternFor(t *testing.T) {
	for _, p := range loadgen.Patterns {
		if got, err := patternFor(string(p)); err != nil || got != p {
			t.Errorf("patternFor(%q) = %q, %v", p, got, err)
		}
	}
	for _, bad := range []string{"", "all", "Poisson", "burst"} {
		if got, err := patternFor(bad); err == nil {
			t.Errorf("patternFor(%q) = %q, want an error", bad, got)
		}
	}
}
