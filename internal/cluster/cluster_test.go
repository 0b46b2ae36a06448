package cluster

import (
	"testing"

	"automap/internal/machine"
)

func TestShepardStructure(t *testing.T) {
	m := Shepard(1)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(m.ProcsOfKindOnNode(machine.CPU, 0)); got != 2 {
		t.Errorf("CPU sockets = %d, want 2", got)
	}
	if got := len(m.ProcsOfKindOnNode(machine.GPU, 0)); got != 1 {
		t.Errorf("GPUs = %d, want 1 (one P100 per node)", got)
	}
	if got := len(m.MemsOfKindOnNode(machine.SysMem, 0)); got != 2 {
		t.Errorf("System memories = %d, want 2 (one per socket)", got)
	}
	if got := len(m.MemsOfKindOnNode(machine.ZeroCopy, 0)); got != 1 {
		t.Errorf("Zero-Copy memories = %d, want 1", got)
	}
	fb := m.MemsOfKindOnNode(machine.FrameBuffer, 0)
	if len(fb) != 1 {
		t.Fatalf("Frame-Buffers = %d, want 1", len(fb))
	}
	if got := m.Mem(fb[0]).Capacity; got != 16*GiB {
		t.Errorf("FB capacity = %d, want 16 GiB", got)
	}
	zc := m.MemsOfKindOnNode(machine.ZeroCopy, 0)[0]
	if got := m.Mem(zc).Capacity; got != 60*GiB {
		t.Errorf("ZC capacity = %d, want 60 GiB (paper's reservation)", got)
	}
}

func TestLassenStructure(t *testing.T) {
	m := Lassen(1)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(m.ProcsOfKindOnNode(machine.GPU, 0)); got != 4 {
		t.Errorf("GPUs = %d, want 4 (V100s per node)", got)
	}
	for _, id := range m.MemsOfKindOnNode(machine.FrameBuffer, 0) {
		if m.Mem(id).Capacity != 16*GiB {
			t.Errorf("FB capacity = %d, want 16 GiB", m.Mem(id).Capacity)
		}
	}
}

func TestAffinityOrderClosestFirst(t *testing.T) {
	m := Shepard(1)
	for _, pid := range m.ProcsOfKindOnNode(machine.CPU, 0) {
		mems := m.AddressableMems(pid)
		if len(mems) < 2 {
			t.Fatalf("CPU %d addresses %d memories", pid, len(mems))
		}
		first := m.Mem(mems[0])
		if first.Kind != machine.SysMem || first.Socket != m.Proc(pid).Socket {
			t.Errorf("CPU %d first affinity should be its socket's System memory, got %v socket %d",
				pid, first.Kind, first.Socket)
		}
	}
	for _, pid := range m.ProcsOfKindOnNode(machine.GPU, 0) {
		mems := m.AddressableMems(pid)
		if m.Mem(mems[0]).Kind != machine.FrameBuffer {
			t.Errorf("GPU %d first affinity should be its Frame-Buffer", pid)
		}
	}
}

func TestGPUCannotAddressSystem(t *testing.T) {
	m := Lassen(1)
	for _, pid := range m.ProcsOfKindOnNode(machine.GPU, 0) {
		for _, mid := range m.AddressableMems(pid) {
			if m.Mem(mid).Kind == machine.SysMem {
				t.Fatalf("GPU %d addresses System memory", pid)
			}
		}
	}
}

func TestMultiNodeNetworkChannels(t *testing.T) {
	m := Shepard(4)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.Nodes != 4 {
		t.Fatalf("Nodes = %d", m.Nodes)
	}
	// Every node pair's socket-0 System memories are connected.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			srcs := m.MemsOfKindOnNode(machine.SysMem, a)
			dsts := m.MemsOfKindOnNode(machine.SysMem, b)
			if _, ok := m.ChannelBetween(srcs[0], dsts[0]); !ok {
				t.Errorf("no network channel between nodes %d and %d", a, b)
			}
		}
	}
}

func TestLassenFBPeerChannels(t *testing.T) {
	m := Lassen(1)
	fbs := m.MemsOfKindOnNode(machine.FrameBuffer, 0)
	if len(fbs) != 4 {
		t.Fatalf("FBs = %d", len(fbs))
	}
	for i := 0; i < len(fbs); i++ {
		for j := i + 1; j < len(fbs); j++ {
			if _, ok := m.ChannelBetween(fbs[i], fbs[j]); !ok {
				t.Errorf("no peer channel FB%d <-> FB%d", i, j)
			}
		}
	}
}

func TestAccessModelPopulated(t *testing.T) {
	for _, m := range []*machine.Machine{Shepard(1), Lassen(1)} {
		am := m.Access
		if am.CPUSys <= 0 || am.GPUFrameBuffer <= 0 || am.GPUZeroCopy <= 0 || am.CPUCache <= 0 {
			t.Errorf("%s access model incomplete: %+v", m.Name, am)
		}
		if am.GPUFrameBuffer <= am.GPUZeroCopy {
			t.Errorf("%s: Frame-Buffer must be faster than Zero-Copy for GPUs", m.Name)
		}
		if m.CacheBytesPerSocket <= 0 {
			t.Errorf("%s: cache capacity missing", m.Name)
		}
	}
}

func TestLassenZeroCopyFasterThanShepard(t *testing.T) {
	// NVLink-attached host memory vs PCIe: the Maestro experiments rely
	// on this difference.
	if Lassen(1).Access.GPUZeroCopy <= Shepard(1).Access.GPUZeroCopy {
		t.Fatal("Lassen GPU->ZC must be faster than Shepard's")
	}
}

func TestSocketThroughputAggregatesCores(t *testing.T) {
	spec := ShepardNode()
	m := Build(spec, 1)
	cpu := m.Proc(m.ProcsOfKindOnNode(machine.CPU, 0)[0])
	want := float64(spec.CoresPerSocket) * spec.CPUCoreFLOPS
	if cpu.ThroughputFLOPS != want {
		t.Fatalf("socket throughput = %v, want %v", cpu.ThroughputFLOPS, want)
	}
}

func TestBuildPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nodes=0")
		}
	}()
	Build(ShepardNode(), 0)
}

func TestPerlmutterStructure(t *testing.T) {
	m := Perlmutter(2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.ProcsOfKindOnNode(machine.CPU, 0)); got != 1 {
		t.Errorf("CPU sockets = %d, want 1 (single-socket EPYC)", got)
	}
	if got := len(m.ProcsOfKindOnNode(machine.GPU, 0)); got != 4 {
		t.Errorf("GPUs = %d, want 4", got)
	}
	fb := m.MemsOfKindOnNode(machine.FrameBuffer, 0)
	if m.Mem(fb[0]).Capacity != 40*GiB {
		t.Errorf("A100 FB capacity = %d, want 40 GiB", m.Mem(fb[0]).Capacity)
	}
	if err := ValidateSpec(PerlmutterNode()); err != nil {
		t.Fatal(err)
	}
}

func TestSpecNames(t *testing.T) {
	for _, name := range []string{"shepard", "lassen", "perlmutter"} {
		spec, err := Spec(name)
		if err != nil {
			t.Error(err)
		} else if spec.Name != name {
			t.Errorf("Spec(%q).Name = %q", name, spec.Name)
		}
	}
	if _, err := Spec("frontier"); err == nil {
		t.Error("unknown cluster accepted")
	}
}
