// Package cluster builds concrete machine.Machine instances for the two
// clusters used in the paper's evaluation (Section 5):
//
//   - Shepard (Stanford HPC Center): per node, 2× Intel Xeon Platinum 8276
//     (28 cores each), 196 GB RAM, 1× NVIDIA Tesla P100 with 16 GB of
//     Frame-Buffer memory;
//   - Lassen (LLNL): per node, 2× IBM Power9 (22 cores each, 20 usable),
//     256 GB RAM, 4× NVIDIA V100 with NVLink 2.0 and 16 GB of Frame-Buffer
//     each.
//
// Following the paper's setup, 8 cores per node are reserved for the
// runtime, and 60 GB of host memory per node is reserved as Zero-Copy
// memory. Bandwidth and latency constants are calibrated from public
// datasheets; only their relative magnitudes matter for mapping decisions.
package cluster

import (
	"fmt"

	"automap/internal/machine"
)

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

// NodeSpec describes one node of a homogeneous cluster.
type NodeSpec struct {
	Name string

	Sockets        int
	CoresPerSocket int   // usable application cores per socket (runtime cores already removed)
	GPUsPerNode    int   // GPUs, split evenly across sockets
	SysMemPerNode  int64 // total System memory in bytes (split across sockets)
	ZeroCopyBytes  int64 // Zero-Copy pool per node
	FrameBufBytes  int64 // Frame-Buffer per GPU

	// Compute calibration. CPU processors are modeled at socket
	// granularity (Legion-style OpenMP variants: one point occupies one
	// socket's worth of cores).
	CPUCoreFLOPS   float64 // sustained FLOPs of one core
	GPUFLOPS       float64 // sustained FLOPs of one GPU
	CPUOverheadSec float64 // per-task scheduling overhead of a CPU (OpenMP) launch
	GPUOverheadSec float64 // per-task launch overhead on a GPU

	// Cache calibration.
	L3BytesPerSocket int64   // last-level cache per socket
	L3BandwidthBps   float64 // effective bandwidth when resident in L3

	// Power calibration (active watts; used by the energy objective).
	CPUSocketPowerW   float64
	GPUPowerW         float64
	CopyEnergyPerByte float64

	// Memory system calibration (bytes/second seen by the owning processor).
	SysMemBW    float64
	ZeroCopyBW  float64 // bandwidth of GPU (or CPU) access to pinned host memory over PCIe/NVLink
	FrameBufBW  float64
	InterSocket float64 // socket-to-socket copy bandwidth
	HostDevBW   float64 // host<->device copy bandwidth (PCIe or NVLink)

	NetworkBW      float64 // inter-node bandwidth (bytes/second, per node pair)
	NetworkLatency float64 // inter-node latency in seconds
}

// ShepardNode returns the node specification for the Shepard cluster.
func ShepardNode() NodeSpec {
	return NodeSpec{
		Name:           "shepard",
		Sockets:        2,
		CoresPerSocket: 24, // 28 cores minus 4 runtime cores per socket
		GPUsPerNode:    1,
		SysMemPerNode:  196 * GiB,
		ZeroCopyBytes:  60 * GiB,
		FrameBufBytes:  16 * GiB,

		CPUCoreFLOPS:   35e9,   // AVX-512 core, sustained
		GPUFLOPS:       4700e9, // P100 FP64 peak ~4.7 TFLOPS
		CPUOverheadSec: 8e-6,
		GPUOverheadSec: 45e-6, // kernel launch + runtime bookkeeping

		L3BytesPerSocket: 38 * (GiB / 1024), // 38 MiB (Xeon 8276)
		L3BandwidthBps:   400e9,

		CPUSocketPowerW:   165, // Xeon 8276 TDP
		GPUPowerW:         250, // P100 board power
		CopyEnergyPerByte: 2.5e-10,

		SysMemBW:    90e9,
		ZeroCopyBW:  11e9, // PCIe 3.0 x16 effective
		FrameBufBW:  550e9,
		InterSocket: 30e9,
		HostDevBW:   12e9,

		NetworkBW:      10e9, // 100 Gb/s fabric
		NetworkLatency: 2e-6,
	}
}

// LassenNode returns the node specification for the Lassen cluster.
func LassenNode() NodeSpec {
	return NodeSpec{
		Name:           "lassen",
		Sockets:        2,
		CoresPerSocket: 16, // 20 usable minus 4 runtime cores per socket
		GPUsPerNode:    4,
		SysMemPerNode:  256 * GiB,
		ZeroCopyBytes:  60 * GiB,
		FrameBufBytes:  16 * GiB,

		CPUCoreFLOPS:   25e9,
		GPUFLOPS:       7000e9, // V100 FP64 peak ~7 TFLOPS
		CPUOverheadSec: 8e-6,
		GPUOverheadSec: 35e-6,

		L3BytesPerSocket: 110 * (GiB / 1024), // 110 MiB (Power9)
		L3BandwidthBps:   350e9,

		CPUSocketPowerW:   190, // Power9 socket
		GPUPowerW:         300, // V100 board power
		CopyEnergyPerByte: 2.0e-10,

		SysMemBW:    120e9,
		ZeroCopyBW:  60e9, // NVLink 2.0 host link
		FrameBufBW:  830e9,
		InterSocket: 50e9,
		HostDevBW:   60e9,

		NetworkBW:      12.5e9, // dual-rail EDR InfiniBand
		NetworkLatency: 1.5e-6,
	}
}

// PerlmutterNode returns a node specification modeled on NERSC
// Perlmutter's GPU nodes (1× AMD EPYC 7763, 4× NVIDIA A100-40GB with
// NVLink 3): not part of the paper's evaluation, but a useful modern
// target for the machine-sensitivity experiments.
func PerlmutterNode() NodeSpec {
	return NodeSpec{
		Name:           "perlmutter",
		Sockets:        1,
		CoresPerSocket: 56, // 64 cores minus 8 runtime cores
		GPUsPerNode:    4,
		SysMemPerNode:  256 * GiB,
		ZeroCopyBytes:  60 * GiB,
		FrameBufBytes:  40 * GiB,

		CPUCoreFLOPS:   40e9,
		GPUFLOPS:       9700e9, // A100 FP64 (tensor) sustained
		CPUOverheadSec: 8e-6,
		GPUOverheadSec: 25e-6,

		L3BytesPerSocket: 256 * (GiB / 1024), // 256 MiB stacked L3
		L3BandwidthBps:   800e9,

		CPUSocketPowerW:   280,
		GPUPowerW:         400,
		CopyEnergyPerByte: 1.5e-10,

		SysMemBW:    200e9,
		ZeroCopyBW:  25e9, // PCIe 4.0 x16
		FrameBufBW:  1550e9,
		InterSocket: 200e9, // single socket: intra-die fabric
		HostDevBW:   25e9,

		NetworkBW:      25e9, // Slingshot-11
		NetworkLatency: 1.2e-6,
	}
}

// Perlmutter builds an n-node Perlmutter machine.
func Perlmutter(nodes int) *machine.Machine { return Build(PerlmutterNode(), nodes) }

// Spec returns the node specification of a named cluster model:
// shepard, lassen, or perlmutter.
func Spec(name string) (NodeSpec, error) {
	switch name {
	case "shepard":
		return ShepardNode(), nil
	case "lassen":
		return LassenNode(), nil
	case "perlmutter":
		return PerlmutterNode(), nil
	}
	return NodeSpec{}, fmt.Errorf("unknown cluster %q (have shepard, lassen, perlmutter)", name)
}

// Build constructs a concrete machine with the given number of nodes from
// the node specification. Panics if nodes < 1 (caller bug).
func Build(spec NodeSpec, nodes int) *machine.Machine {
	if nodes < 1 {
		panic("cluster.Build: nodes must be >= 1")
	}
	m := machine.New(spec.Name)

	type nodeMems struct {
		sys []machine.MemID // one per socket
		zc  machine.MemID
		fb  []machine.MemID // one per GPU
	}
	mems := make([]nodeMems, nodes)

	for n := 0; n < nodes; n++ {
		nm := &mems[n]
		for s := 0; s < spec.Sockets; s++ {
			nm.sys = append(nm.sys, m.AddMemory(machine.Memory{
				Kind:         machine.SysMem,
				Node:         n,
				Socket:       s,
				Capacity:     spec.SysMemPerNode / int64(spec.Sockets),
				BandwidthBps: spec.SysMemBW,
			}))
		}
		nm.zc = m.AddMemory(machine.Memory{
			Kind:         machine.ZeroCopy,
			Node:         n,
			Capacity:     spec.ZeroCopyBytes,
			BandwidthBps: spec.ZeroCopyBW,
		})
		for g := 0; g < spec.GPUsPerNode; g++ {
			socket := 0
			if spec.GPUsPerNode > 1 {
				socket = g * spec.Sockets / spec.GPUsPerNode
			}
			nm.fb = append(nm.fb, m.AddMemory(machine.Memory{
				Kind:         machine.FrameBuffer,
				Node:         n,
				Socket:       socket,
				Device:       g,
				Capacity:     spec.FrameBufBytes,
				BandwidthBps: spec.FrameBufBW,
			}))
		}

		// Processors and affinities. Affinity order encodes "closest
		// first": CPUs prefer their socket's System memory, then
		// Zero-Copy, then the other socket's System memory; GPUs
		// prefer their own Frame-Buffer, then Zero-Copy.
		// One CPU slot per socket: Legion-style OpenMP variants run a
		// point across a socket's cores, so a socket is the unit of
		// CPU scheduling and its throughput aggregates its cores.
		for s := 0; s < spec.Sockets; s++ {
			p := m.AddProcessor(machine.Processor{
				Kind:            machine.CPU,
				Node:            n,
				Socket:          s,
				Device:          s,
				ThroughputFLOPS: float64(spec.CoresPerSocket) * spec.CPUCoreFLOPS,
				LaunchOverhead:  spec.CPUOverheadSec,
				PowerW:          spec.CPUSocketPowerW,
			})
			m.AddAffinity(p, nm.sys[s])
			m.AddAffinity(p, nm.zc)
			for s2 := 0; s2 < spec.Sockets; s2++ {
				if s2 != s {
					m.AddAffinity(p, nm.sys[s2])
				}
			}
		}
		for g := 0; g < spec.GPUsPerNode; g++ {
			socket := 0
			if spec.GPUsPerNode > 1 {
				socket = g * spec.Sockets / spec.GPUsPerNode
			}
			p := m.AddProcessor(machine.Processor{
				Kind:            machine.GPU,
				Node:            n,
				Socket:          socket,
				Device:          g,
				ThroughputFLOPS: spec.GPUFLOPS,
				LaunchOverhead:  spec.GPUOverheadSec,
				PowerW:          spec.GPUPowerW,
			})
			m.AddAffinity(p, nm.fb[g])
			m.AddAffinity(p, nm.zc)
		}

		// Intra-node channels.
		for s := 0; s < spec.Sockets; s++ {
			// Socket System <-> Zero-Copy (host-side copy).
			m.AddChannel(machine.Channel{Src: nm.sys[s], Dst: nm.zc, BandwidthBps: spec.InterSocket, LatencySec: 1e-6})
			// System <-> System across sockets.
			for s2 := s + 1; s2 < spec.Sockets; s2++ {
				m.AddChannel(machine.Channel{Src: nm.sys[s], Dst: nm.sys[s2], BandwidthBps: spec.InterSocket, LatencySec: 1e-6})
			}
			// System <-> each Frame-Buffer (staged DMA).
			for _, fb := range nm.fb {
				m.AddChannel(machine.Channel{Src: nm.sys[s], Dst: fb, BandwidthBps: spec.HostDevBW, LatencySec: 5e-6})
			}
		}
		for _, fb := range nm.fb {
			m.AddChannel(machine.Channel{Src: nm.zc, Dst: fb, BandwidthBps: spec.HostDevBW, LatencySec: 5e-6})
		}
		// Frame-Buffer <-> Frame-Buffer (peer DMA / NVLink).
		for i := 0; i < len(nm.fb); i++ {
			for j := i + 1; j < len(nm.fb); j++ {
				m.AddChannel(machine.Channel{Src: nm.fb[i], Dst: nm.fb[j], BandwidthBps: spec.HostDevBW, LatencySec: 3e-6})
			}
		}
	}

	// Inter-node channels: System memory socket 0 of each node pair acts
	// as the network endpoint; the simulator routes other inter-node
	// copies through it.
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			m.AddChannel(machine.Channel{
				Src: mems[a].sys[0], Dst: mems[b].sys[0],
				BandwidthBps: spec.NetworkBW, LatencySec: spec.NetworkLatency,
			})
		}
	}

	m.NetworkBandwidthBps = spec.NetworkBW
	m.NetworkLatencySec = spec.NetworkLatency
	m.Access = machine.AccessModel{
		CPUSys:             spec.SysMemBW,
		CPUSysRemote:       spec.InterSocket,
		CPUZeroCopy:        0.8 * spec.SysMemBW, // pinned host memory, near-DRAM for CPUs
		GPUFrameBuffer:     spec.FrameBufBW,
		GPUFrameBufferPeer: spec.HostDevBW,
		GPUZeroCopy:        spec.ZeroCopyBW,
		CPUCache:           spec.L3BandwidthBps,
	}
	m.CacheBytesPerSocket = spec.L3BytesPerSocket
	m.CopyEnergyPerByte = spec.CopyEnergyPerByte
	return m
}

// Shepard builds an n-node Shepard machine.
func Shepard(nodes int) *machine.Machine { return Build(ShepardNode(), nodes) }

// Lassen builds an n-node Lassen machine.
func Lassen(nodes int) *machine.Machine { return Build(LassenNode(), nodes) }
