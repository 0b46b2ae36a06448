// Package machine models a distributed, heterogeneous machine as a graph of
// processors and memories, following Section 2 of the AutoMap paper
// (Teixeira et al., SC '23).
//
// A machine M is a graph whose nodes are processors and memories. Each
// processor has a kind (CPU or GPU), each memory has a kind and a capacity in
// bytes. Edges are of two types: an edge between a processor p and a memory m
// means m is addressable by p; an edge between two memories is a
// communication channel with a bandwidth and a latency.
//
// Two views of the machine coexist:
//
//   - the concrete Machine, which enumerates every physical processor and
//     memory with node/socket placement, used by the simulator; and
//   - the abstract Model, which only records processor kinds, memory kinds
//     and kind-level addressability, used by the search (the paper's
//     factorization of the search space, Section 3.2).
package machine

import (
	"fmt"
	"sort"
	"strings"
)

// ProcKind identifies a kind of processor. The paper considers CPUs and
// GPUs; the type is open-ended so other accelerators can be added.
type ProcKind uint8

// Processor kinds.
const (
	// CPU is a general-purpose core. Every task has a CPU variant in the
	// benchmark applications we model.
	CPU ProcKind = iota
	// GPU is an accelerator processor.
	GPU

	numProcKinds = iota
)

// NumProcKinds is the number of distinct processor kinds.
const NumProcKinds = int(numProcKinds)

// String returns the conventional name of the processor kind.
func (k ProcKind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("ProcKind(%d)", uint8(k))
	}
}

// MemKind identifies a kind of memory. The paper's experiments use three
// kinds: System memory (CPU-addressable RAM, one allocation per socket),
// Zero-Copy memory (pinned host memory addressable by both CPUs and GPUs),
// and Frame-Buffer memory (GPU-local high-throughput memory).
type MemKind uint8

// Memory kinds.
const (
	// SysMem is CPU-addressable RAM; on multi-socket nodes there is one
	// System memory per socket, so data shared across sockets incurs a
	// copy (Section 5, Stencil discussion).
	SysMem MemKind = iota
	// ZeroCopy is pinned host memory addressable by all CPUs and GPUs of
	// a node through a single allocation.
	ZeroCopy
	// FrameBuffer is the GPU-local device memory: highest bandwidth,
	// smallest capacity.
	FrameBuffer

	numMemKinds = iota
)

// NumMemKinds is the number of distinct memory kinds.
const NumMemKinds = int(numMemKinds)

// String returns the conventional name of the memory kind.
func (k MemKind) String() string {
	switch k {
	case SysMem:
		return "System"
	case ZeroCopy:
		return "Zero-Copy"
	case FrameBuffer:
		return "Frame-Buffer"
	default:
		return fmt.Sprintf("MemKind(%d)", uint8(k))
	}
}

// ShortString returns a compact label used in mapping visualizations.
func (k MemKind) ShortString() string {
	switch k {
	case SysMem:
		return "SYS"
	case ZeroCopy:
		return "ZC"
	case FrameBuffer:
		return "FB"
	default:
		return fmt.Sprintf("M%d", uint8(k))
	}
}

// ProcID names a concrete processor within a Machine.
type ProcID int

// MemID names a concrete memory within a Machine.
type MemID int

// Processor is one concrete processor of the machine.
type Processor struct {
	ID     ProcID
	Kind   ProcKind
	Node   int // machine node (0-based)
	Socket int // socket within the node (0-based); GPUs inherit their host socket
	Device int // device index within (node, kind), e.g. GPU 0..3 on Lassen

	// ThroughputFLOPS is the sustained compute throughput used by the
	// simulator to convert task work (in abstract FLOPs) into seconds.
	ThroughputFLOPS float64
	// LaunchOverhead is the fixed per-task overhead in seconds (kernel
	// launch for GPUs, scheduling overhead for CPUs). This overhead is
	// what makes small problem sizes favor CPUs in Figure 6.
	LaunchOverhead float64
	// PowerW is the active power draw of the processor in watts, used
	// by the energy objective (the paper notes AutoMap "is suitable for
	// minimizing other metrics (e.g., power consumption)", Section 3.3).
	PowerW float64
}

// Memory is one concrete memory of the machine.
type Memory struct {
	ID       MemID
	Kind     MemKind
	Node     int
	Socket   int // for SysMem: owning socket; for FrameBuffer: host socket of the GPU
	Device   int // for FrameBuffer: GPU device index; otherwise 0
	Capacity int64

	// BandwidthBps is the sustained bandwidth in bytes/second seen by a
	// processor streaming from this memory (used for the task access-cost
	// component of the execution model).
	BandwidthBps float64
}

// Channel is a directed communication channel between two memories. Copies
// between memories without a direct channel are routed through intermediate
// hops by the simulator.
type Channel struct {
	Src, Dst     MemID
	BandwidthBps float64
	LatencySec   float64
}

// Machine is a concrete machine instance.
type Machine struct {
	Name  string
	Nodes int

	Procs []Processor
	Mems  []Memory

	// channels[src][dst] holds the direct channel, if any.
	channels map[MemID]map[MemID]Channel

	// affinity[p] is the set of memories addressable by processor p.
	affinity map[ProcID][]MemID

	// NetworkBandwidthBps and NetworkLatencySec describe the inter-node
	// interconnect; they are kept for reporting and used when building
	// inter-node channels.
	NetworkBandwidthBps float64
	NetworkLatencySec   float64

	// Access describes the sustained bandwidth (bytes/second) seen by a
	// processor of each kind streaming from a memory of each kind; the
	// simulator uses it for the data-access component of task execution
	// time.
	Access AccessModel

	// CacheBytesPerSocket is the last-level cache capacity per CPU
	// socket (0 disables the cache bandwidth tier).
	CacheBytesPerSocket int64

	// CopyEnergyPerByte is the energy in joules to move one byte
	// between memories, used by the energy objective.
	CopyEnergyPerByte float64
}

// AccessModel gives the processor-kind × memory-kind access bandwidths of a
// machine. A zero bandwidth means the combination is not addressable.
type AccessModel struct {
	// CPUSys is a core reading its own socket's System memory.
	CPUSys float64
	// CPUSysRemote is a core reading the other socket's System memory.
	CPUSysRemote float64
	// CPUZeroCopy is a core reading pinned Zero-Copy memory.
	CPUZeroCopy float64
	// GPUFrameBuffer is a GPU reading its own Frame-Buffer.
	GPUFrameBuffer float64
	// GPUFrameBufferPeer is a GPU reading a peer GPU's Frame-Buffer.
	GPUFrameBufferPeer float64
	// GPUZeroCopy is a GPU reading pinned Zero-Copy memory over the
	// host link; the increased latency / decreased bandwidth of this
	// path is the central FB-vs-ZC trade-off of the paper.
	GPUZeroCopy float64
	// CPUCache is the effective bandwidth of a socket whose working set
	// fits in its last-level cache; the simulator applies it to
	// CPU accesses of host memory when the per-socket resident bytes of
	// a collection fit in CacheBytesPerSocket.
	CPUCache float64
}

// Bandwidth returns the access bandwidth for processor kind pk streaming
// from memory kind mk. remote selects the cross-socket / peer-device
// variant where one exists. Returns 0 for unaddressable combinations
// (e.g. CPU + Frame-Buffer).
func (am AccessModel) Bandwidth(pk ProcKind, mk MemKind, remote bool) float64 {
	switch {
	case pk == CPU && mk == SysMem && !remote:
		return am.CPUSys
	case pk == CPU && mk == SysMem && remote:
		return am.CPUSysRemote
	case pk == CPU && mk == ZeroCopy:
		return am.CPUZeroCopy
	case pk == GPU && mk == FrameBuffer && !remote:
		return am.GPUFrameBuffer
	case pk == GPU && mk == FrameBuffer && remote:
		return am.GPUFrameBufferPeer
	case pk == GPU && mk == ZeroCopy:
		return am.GPUZeroCopy
	default:
		return 0
	}
}

// New returns an empty machine with the given name. Use AddProcessor,
// AddMemory, AddAffinity and AddChannel to populate it, then call Validate.
func New(name string) *Machine {
	return &Machine{
		Name:     name,
		channels: make(map[MemID]map[MemID]Channel),
		affinity: make(map[ProcID][]MemID),
	}
}

// AddProcessor appends a processor and returns its ID.
func (m *Machine) AddProcessor(p Processor) ProcID {
	p.ID = ProcID(len(m.Procs))
	m.Procs = append(m.Procs, p)
	if p.Node >= m.Nodes {
		m.Nodes = p.Node + 1
	}
	return p.ID
}

// AddMemory appends a memory and returns its ID.
func (m *Machine) AddMemory(mem Memory) MemID {
	mem.ID = MemID(len(m.Mems))
	m.Mems = append(m.Mems, mem)
	if mem.Node >= m.Nodes {
		m.Nodes = mem.Node + 1
	}
	return mem.ID
}

// AddAffinity records that memory mem is addressable by processor p.
func (m *Machine) AddAffinity(p ProcID, mem MemID) {
	m.affinity[p] = append(m.affinity[p], mem)
}

// AddChannel records a direct communication channel between two memories in
// both directions.
func (m *Machine) AddChannel(c Channel) {
	m.addDirectedChannel(c)
	rev := c
	rev.Src, rev.Dst = c.Dst, c.Src
	m.addDirectedChannel(rev)
}

func (m *Machine) addDirectedChannel(c Channel) {
	inner, ok := m.channels[c.Src]
	if !ok {
		inner = make(map[MemID]Channel)
		m.channels[c.Src] = inner
	}
	inner[c.Dst] = c
}

// ChannelBetween returns the direct channel from src to dst, if present.
func (m *Machine) ChannelBetween(src, dst MemID) (Channel, bool) {
	c, ok := m.channels[src][dst]
	return c, ok
}

// AddressableMems returns the memories addressable by processor p, in
// insertion (affinity) order: closest first.
func (m *Machine) AddressableMems(p ProcID) []MemID {
	return m.affinity[p]
}

// Proc returns the processor with the given ID.
func (m *Machine) Proc(id ProcID) *Processor { return &m.Procs[id] }

// Mem returns the memory with the given ID.
func (m *Machine) Mem(id MemID) *Memory { return &m.Mems[id] }

// ProcsOfKindOnNode returns the processors of kind k on the given node.
func (m *Machine) ProcsOfKindOnNode(k ProcKind, node int) []ProcID {
	var out []ProcID
	for i := range m.Procs {
		if m.Procs[i].Kind == k && m.Procs[i].Node == node {
			out = append(out, m.Procs[i].ID)
		}
	}
	return out
}

// MemsOfKindOnNode returns the memories of kind k on the given node.
func (m *Machine) MemsOfKindOnNode(k MemKind, node int) []MemID {
	var out []MemID
	for i := range m.Mems {
		if m.Mems[i].Kind == k && m.Mems[i].Node == node {
			out = append(out, m.Mems[i].ID)
		}
	}
	return out
}

// Validate checks structural invariants: every processor addresses at least
// one memory, every channel endpoint exists, node numbering is dense.
func (m *Machine) Validate() error {
	if len(m.Procs) == 0 {
		return fmt.Errorf("machine %q has no processors", m.Name)
	}
	if len(m.Mems) == 0 {
		return fmt.Errorf("machine %q has no memories", m.Name)
	}
	seenNodes := make(map[int]bool)
	for i := range m.Procs {
		p := &m.Procs[i]
		seenNodes[p.Node] = true
		if len(m.affinity[p.ID]) == 0 {
			return fmt.Errorf("processor %d (%s node %d) addresses no memory", p.ID, p.Kind, p.Node)
		}
		for _, mid := range m.affinity[p.ID] {
			if int(mid) < 0 || int(mid) >= len(m.Mems) {
				return fmt.Errorf("processor %d has affinity to unknown memory %d", p.ID, mid)
			}
		}
	}
	//mapvet:unordered validation: the success path visits every entry regardless of order, and any one violation is a sufficient error
	for src, inner := range m.channels {
		if int(src) < 0 || int(src) >= len(m.Mems) {
			return fmt.Errorf("channel source memory %d does not exist", src)
		}
		//mapvet:unordered validation: same as the outer loop
		for dst := range inner {
			if int(dst) < 0 || int(dst) >= len(m.Mems) {
				return fmt.Errorf("channel destination memory %d does not exist", dst)
			}
		}
	}
	for n := 0; n < m.Nodes; n++ {
		if !seenNodes[n] {
			return fmt.Errorf("machine %q has no processors on node %d", m.Name, n)
		}
	}
	return nil
}

// Model returns the abstract kind-level view of the machine used by the
// search algorithms.
func (m *Machine) Model() *Model {
	md := &Model{Name: m.Name}
	kindMems := make(map[ProcKind]map[MemKind]bool)
	for i := range m.Procs {
		p := &m.Procs[i]
		if kindMems[p.Kind] == nil {
			kindMems[p.Kind] = make(map[MemKind]bool)
			md.ProcKinds = append(md.ProcKinds, p.Kind)
		}
		for _, mid := range m.affinity[p.ID] {
			kindMems[p.Kind][m.Mems[mid].Kind] = true
		}
	}
	sort.Slice(md.ProcKinds, func(i, j int) bool { return md.ProcKinds[i] < md.ProcKinds[j] })
	seenMem := make(map[MemKind]bool)
	for i := range m.Mems {
		if !seenMem[m.Mems[i].Kind] {
			seenMem[m.Mems[i].Kind] = true
			md.MemKinds = append(md.MemKinds, m.Mems[i].Kind)
		}
	}
	sort.Slice(md.MemKinds, func(i, j int) bool { return md.MemKinds[i] < md.MemKinds[j] })
	md.accessible = make(map[ProcKind][]MemKind)
	//mapvet:unordered each key is handled independently and its list is sorted before assignment
	for pk, mems := range kindMems {
		var ks []MemKind
		for mk := range mems {
			ks = append(ks, mk)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		md.accessible[pk] = ks
	}
	return md
}

// String summarizes the machine.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d node(s), %d processors, %d memories", m.Name, m.Nodes, len(m.Procs), len(m.Mems))
	return b.String()
}

// Model is the abstract, kind-level machine description used to define the
// search space: which processor kinds exist and which memory kinds each
// processor kind can address.
type Model struct {
	Name      string
	ProcKinds []ProcKind
	MemKinds  []MemKind

	accessible map[ProcKind][]MemKind
}

// NewModel builds a model directly from a kind-level accessibility relation.
// The map is copied.
func NewModel(name string, accessible map[ProcKind][]MemKind) *Model {
	md := &Model{Name: name, accessible: make(map[ProcKind][]MemKind, len(accessible))}
	memSeen := make(map[MemKind]bool)
	//mapvet:unordered every collected slice (ProcKinds, MemKinds, each accessibility list) is sorted before the model escapes
	for pk, mks := range accessible {
		md.ProcKinds = append(md.ProcKinds, pk)
		cp := append([]MemKind(nil), mks...)
		// Sort the copied list: Accessible documents a deterministic
		// order, and Machine.Model sorts its lists — a caller-ordered
		// list here would make move enumeration depend on how the model
		// was constructed.
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		md.accessible[pk] = cp
		for _, mk := range cp {
			if !memSeen[mk] {
				memSeen[mk] = true
				md.MemKinds = append(md.MemKinds, mk)
			}
		}
	}
	sort.Slice(md.ProcKinds, func(i, j int) bool { return md.ProcKinds[i] < md.ProcKinds[j] })
	sort.Slice(md.MemKinds, func(i, j int) bool { return md.MemKinds[i] < md.MemKinds[j] })
	return md
}

// Accessible returns the memory kinds addressable by processor kind pk, in a
// deterministic order.
func (md *Model) Accessible(pk ProcKind) []MemKind {
	return md.accessible[pk]
}

// CanAccess reports whether processor kind pk can address memory kind mk.
// This is the paper's correctness constraint (1) in Section 4.2.
func (md *Model) CanAccess(pk ProcKind, mk MemKind) bool {
	for _, k := range md.accessible[pk] {
		if k == mk {
			return true
		}
	}
	return false
}

// HasProcKind reports whether the model contains processor kind pk.
func (md *Model) HasProcKind(pk ProcKind) bool {
	for _, k := range md.ProcKinds {
		if k == pk {
			return true
		}
	}
	return false
}
