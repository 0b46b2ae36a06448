package machine

import (
	"strings"
	"testing"
)

// twoKindMachine builds a minimal machine with one CPU+System and one
// GPU+FrameBuffer+ZeroCopy on a single node.
func twoKindMachine(t *testing.T) *Machine {
	t.Helper()
	m := New("test")
	sys := m.AddMemory(Memory{Kind: SysMem, Node: 0, Capacity: 1 << 30, BandwidthBps: 100e9})
	zc := m.AddMemory(Memory{Kind: ZeroCopy, Node: 0, Capacity: 1 << 30, BandwidthBps: 10e9})
	fb := m.AddMemory(Memory{Kind: FrameBuffer, Node: 0, Capacity: 1 << 28, BandwidthBps: 500e9})
	cpu := m.AddProcessor(Processor{Kind: CPU, Node: 0, ThroughputFLOPS: 1e11, LaunchOverhead: 1e-6})
	gpu := m.AddProcessor(Processor{Kind: GPU, Node: 0, ThroughputFLOPS: 1e12, LaunchOverhead: 1e-5})
	m.AddAffinity(cpu, sys)
	m.AddAffinity(cpu, zc)
	m.AddAffinity(gpu, fb)
	m.AddAffinity(gpu, zc)
	m.AddChannel(Channel{Src: sys, Dst: zc, BandwidthBps: 30e9, LatencySec: 1e-6})
	m.AddChannel(Channel{Src: zc, Dst: fb, BandwidthBps: 12e9, LatencySec: 5e-6})
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func TestKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{CPU.String(), "CPU"},
		{GPU.String(), "GPU"},
		{SysMem.String(), "System"},
		{ZeroCopy.String(), "Zero-Copy"},
		{FrameBuffer.String(), "Frame-Buffer"},
		{SysMem.ShortString(), "SYS"},
		{ZeroCopy.ShortString(), "ZC"},
		{FrameBuffer.ShortString(), "FB"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
	if !strings.Contains(ProcKind(9).String(), "9") {
		t.Errorf("unknown kinds should render their value")
	}
}

func TestAddAssignsIDsAndNodes(t *testing.T) {
	m := twoKindMachine(t)
	if m.Nodes != 1 {
		t.Fatalf("Nodes = %d, want 1", m.Nodes)
	}
	for i, p := range m.Procs {
		if int(p.ID) != i {
			t.Errorf("proc %d has ID %d", i, p.ID)
		}
	}
	for i, mem := range m.Mems {
		if int(mem.ID) != i {
			t.Errorf("mem %d has ID %d", i, mem.ID)
		}
	}
}

func TestProcsAndMemsOfKind(t *testing.T) {
	m := twoKindMachine(t)
	if got := len(m.ProcsOfKindOnNode(CPU, 0)); got != 1 {
		t.Errorf("CPUs on node 0 = %d, want 1", got)
	}
	if got := len(m.ProcsOfKindOnNode(GPU, 0)); got != 1 {
		t.Errorf("GPUs on node 0 = %d, want 1", got)
	}
	if got := len(m.ProcsOfKindOnNode(GPU, 1)); got != 0 {
		t.Errorf("GPUs on node 1 = %d, want 0", got)
	}
	if got := len(m.MemsOfKindOnNode(SysMem, 0)); got != 1 {
		t.Errorf("SysMem on node 0 = %d, want 1", got)
	}
}

func TestChannelBetweenIsBidirectional(t *testing.T) {
	m := twoKindMachine(t)
	sys := m.MemsOfKindOnNode(SysMem, 0)[0]
	zc := m.MemsOfKindOnNode(ZeroCopy, 0)[0]
	if _, ok := m.ChannelBetween(sys, zc); !ok {
		t.Fatal("missing sys->zc channel")
	}
	if _, ok := m.ChannelBetween(zc, sys); !ok {
		t.Fatal("missing zc->sys channel")
	}
	fb := m.MemsOfKindOnNode(FrameBuffer, 0)[0]
	if _, ok := m.ChannelBetween(sys, fb); ok {
		t.Fatal("unexpected direct sys->fb channel")
	}
}

func TestValidateCatchesOrphanProcessor(t *testing.T) {
	m := New("bad")
	m.AddMemory(Memory{Kind: SysMem, Node: 0, Capacity: 1})
	m.AddProcessor(Processor{Kind: CPU, Node: 0})
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for processor with no affinity")
	}
}

func TestValidateCatchesEmptyMachine(t *testing.T) {
	if err := New("empty").Validate(); err == nil {
		t.Fatal("expected error for empty machine")
	}
}

func TestValidateCatchesNodeGap(t *testing.T) {
	m := New("gap")
	sys := m.AddMemory(Memory{Kind: SysMem, Node: 0, Capacity: 1})
	p := m.AddProcessor(Processor{Kind: CPU, Node: 2})
	m.AddAffinity(p, sys)
	if err := m.Validate(); err == nil {
		t.Fatal("expected error for missing node 0/1 processors")
	}
}

func TestModelAccessibility(t *testing.T) {
	md := twoKindMachine(t).Model()
	if !md.CanAccess(CPU, SysMem) || !md.CanAccess(CPU, ZeroCopy) {
		t.Error("CPU should access System and Zero-Copy")
	}
	if md.CanAccess(CPU, FrameBuffer) {
		t.Error("CPU must not access Frame-Buffer")
	}
	if !md.CanAccess(GPU, FrameBuffer) || !md.CanAccess(GPU, ZeroCopy) {
		t.Error("GPU should access Frame-Buffer and Zero-Copy")
	}
	if md.CanAccess(GPU, SysMem) {
		t.Error("GPU must not access System memory")
	}
	if len(md.ProcKinds) != 2 || len(md.MemKinds) != 3 {
		t.Errorf("model kinds = %v / %v", md.ProcKinds, md.MemKinds)
	}
	if !md.HasProcKind(GPU) || md.HasProcKind(ProcKind(7)) {
		t.Error("HasProcKind wrong")
	}
}

func TestNewModelDirect(t *testing.T) {
	md := NewModel("direct", map[ProcKind][]MemKind{
		CPU: {SysMem, ZeroCopy},
		GPU: {FrameBuffer, ZeroCopy},
	})
	if !md.CanAccess(CPU, ZeroCopy) || md.CanAccess(CPU, FrameBuffer) {
		t.Fatal("NewModel accessibility wrong")
	}
	if got := md.Accessible(GPU); len(got) != 2 {
		t.Fatalf("Accessible(GPU) = %v", got)
	}
}

func TestModelOutOfRangeKinds(t *testing.T) {
	md := NewModel("direct", map[ProcKind][]MemKind{
		CPU: {ZeroCopy, SysMem},
		GPU: {ZeroCopy, FrameBuffer},
	})
	if got := md.Accessible(CPU); len(got) != 2 || got[0] != SysMem || got[1] != ZeroCopy {
		t.Fatalf("Accessible(CPU) = %v, want sorted [System Zero-Copy]", got)
	}
	// A loaded or fuzzed mapping can carry any processor-kind byte.
	for _, pk := range []ProcKind{ProcKind(NumProcKinds), 7, 255} {
		if got := md.Accessible(pk); got != nil {
			t.Errorf("Accessible(%v) = %v, want nil", pk, got)
		}
		for mk := MemKind(0); mk < MemKind(NumMemKinds); mk++ {
			if md.CanAccess(pk, mk) {
				t.Errorf("CanAccess(%v, %v) = true", pk, mk)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel accepted an unknown processor kind")
		}
	}()
	NewModel("bad", map[ProcKind][]MemKind{ProcKind(9): {SysMem}})
}

func TestAccessModelBandwidth(t *testing.T) {
	am := AccessModel{
		CPUSys: 1, CPUSysRemote: 2, CPUZeroCopy: 3,
		GPUFrameBuffer: 4, GPUFrameBufferPeer: 5, GPUZeroCopy: 6,
	}
	cases := []struct {
		pk     ProcKind
		mk     MemKind
		remote bool
		want   float64
	}{
		{CPU, SysMem, false, 1},
		{CPU, SysMem, true, 2},
		{CPU, ZeroCopy, false, 3},
		{GPU, FrameBuffer, false, 4},
		{GPU, FrameBuffer, true, 5},
		{GPU, ZeroCopy, false, 6},
		{CPU, FrameBuffer, false, 0}, // unaddressable
	}
	for _, c := range cases {
		if got := am.Bandwidth(c.pk, c.mk, c.remote); got != c.want {
			t.Errorf("Bandwidth(%v,%v,%v) = %v, want %v", c.pk, c.mk, c.remote, got, c.want)
		}
	}
}

func TestMachineString(t *testing.T) {
	m := twoKindMachine(t)
	s := m.String()
	if !strings.Contains(s, "test") || !strings.Contains(s, "2 processors") {
		t.Errorf("String() = %q", s)
	}
}
