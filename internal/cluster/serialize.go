// JSON (de)serialization of node specifications, so custom machine models
// can be described in files and passed to the tools ("the input is a file
// containing the search space and machine model representation",
// Section 3.3).

package cluster

import (
	"encoding/json"
	"fmt"
	"os"
)

// LoadSpec reads a node specification from a JSON file (bare Go field
// names) and validates it.
func LoadSpec(path string) (NodeSpec, error) {
	var spec NodeSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parsing machine spec %s: %w", path, err)
	}
	if err := ValidateSpec(spec); err != nil {
		return spec, fmt.Errorf("machine spec %s: %w", path, err)
	}
	return spec, nil
}

// ValidateSpec checks that a node specification is buildable: positive
// socket/core counts, capacities and rates. GPUs are optional (a CPU-only
// cluster is a valid machine).
func ValidateSpec(spec NodeSpec) error {
	switch {
	case spec.Name == "":
		return fmt.Errorf("missing name")
	case spec.Sockets < 1:
		return fmt.Errorf("sockets = %d", spec.Sockets)
	case spec.CoresPerSocket < 1:
		return fmt.Errorf("cores per socket = %d", spec.CoresPerSocket)
	case spec.GPUsPerNode < 0:
		return fmt.Errorf("GPUs per node = %d", spec.GPUsPerNode)
	case spec.SysMemPerNode <= 0:
		return fmt.Errorf("system memory = %d", spec.SysMemPerNode)
	case spec.ZeroCopyBytes < 0:
		return fmt.Errorf("zero-copy pool = %d", spec.ZeroCopyBytes)
	case spec.GPUsPerNode > 0 && spec.FrameBufBytes <= 0:
		return fmt.Errorf("frame-buffer bytes = %d with %d GPUs", spec.FrameBufBytes, spec.GPUsPerNode)
	case spec.CPUCoreFLOPS <= 0:
		return fmt.Errorf("CPU throughput = %v", spec.CPUCoreFLOPS)
	case spec.GPUsPerNode > 0 && spec.GPUFLOPS <= 0:
		return fmt.Errorf("GPU throughput = %v", spec.GPUFLOPS)
	case spec.SysMemBW <= 0:
		return fmt.Errorf("system memory bandwidth = %v", spec.SysMemBW)
	case spec.NetworkBW <= 0:
		return fmt.Errorf("network bandwidth = %v", spec.NetworkBW)
	}
	return nil
}
