package analyze

import (
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// ProveCapacity exposes the capacity lower-bound prover to the soundness
// tests: true when proveCapacity finds a violated kind subset, which must
// imply that placing mp on (m, g) fails.
func ProveCapacity(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) bool {
	return len(proveCapacity(m, g, mp)) > 0
}

// CapacityPass is the AM0011 pass alone.
var CapacityPass Pass = capacityPass{}
