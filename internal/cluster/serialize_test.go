package cluster

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"automap/internal/fsatomic"
	"automap/internal/machine"
)

// writeSpec writes spec to path as indented JSON.
func writeSpec(t *testing.T, spec NodeSpec, path string) {
	t.Helper()
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsatomic.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}

func TestSpecSaveLoadRoundtrip(t *testing.T) {
	spec := ShepardNode()
	path := filepath.Join(t.TempDir(), "spec.json")
	writeSpec(t, spec, path)
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestLoadSpecRejectsInvalid(t *testing.T) {
	bad := ShepardNode()
	bad.Sockets = 0
	path := filepath.Join(t.TempDir(), "bad.json")
	writeSpec(t, bad, path)
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateSpecCases(t *testing.T) {
	good := ShepardNode()
	if err := ValidateSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mut := func(f func(*NodeSpec)) NodeSpec {
		s := ShepardNode()
		f(&s)
		return s
	}
	bad := []NodeSpec{
		mut(func(s *NodeSpec) { s.Name = "" }),
		mut(func(s *NodeSpec) { s.CoresPerSocket = 0 }),
		mut(func(s *NodeSpec) { s.GPUsPerNode = -1 }),
		mut(func(s *NodeSpec) { s.SysMemPerNode = 0 }),
		mut(func(s *NodeSpec) { s.FrameBufBytes = 0 }),
		mut(func(s *NodeSpec) { s.CPUCoreFLOPS = 0 }),
		mut(func(s *NodeSpec) { s.NetworkBW = 0 }),
	}
	for i, s := range bad {
		if err := ValidateSpec(s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestCPUOnlyClusterBuilds(t *testing.T) {
	spec := ShepardNode()
	spec.Name = "cpu-only"
	spec.GPUsPerNode = 0
	spec.FrameBufBytes = 0
	spec.GPUFLOPS = 0
	if err := ValidateSpec(spec); err != nil {
		t.Fatalf("CPU-only spec rejected: %v", err)
	}
	m := Build(spec, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("CPU-only machine invalid: %v", err)
	}
	for node := 0; node < 2; node++ {
		if len(m.ProcsOfKindOnNode(machine.GPU, node)) > 0 {
			t.Fatalf("CPU-only machine has GPUs on node %d", node)
		}
	}
	md := m.Model()
	if md.HasProcKind(machine.GPU) {
		t.Fatal("model reports GPUs")
	}
	if !md.CanAccess(machine.CPU, machine.SysMem) {
		t.Fatal("CPU cannot access System memory")
	}
}
