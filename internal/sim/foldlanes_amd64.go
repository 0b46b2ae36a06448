package sim

import (
	"unsafe"

	"automap/internal/machine"
)

// haveAVX2 reports whether this host runs the AVX2 lane fold: the CPU has
// AVX and AVX2 and the operating system saves the ymm registers.
var haveAVX2 = cpuHasAVX2()

// The layout constants the kernel reads from go_asm.h, which exports the
// package's own constants only: machine.NumProcKinds, and the size of a
// lane block.
const (
	procKinds = machine.NumProcKinds
	laneBytes = unsafe.Sizeof(lanes{})
)

// laneKernel is what one foldLaunchAVX2 call reads and advances: the lane
// blocks the fold carries from launch to launch, the base of every array
// it indexes, and the current launch's ranges and ring slot.
type laneKernel struct {
	net, energy, makespan lanes

	finish *lanes   // the finish ring, ring entries
	proc   *lanes   // [node*NumProcKinds + kind]
	copies *lanes   // per node
	ops    *copyOp  // the schedule's ops
	execs  *execRec // the schedule's execs
	noise  *lanes   // entry ex is exec ex's draws this repetition; nil without noise
	preds  *int32   // topology.preds

	predLo, predHi int // the launch's predecessor list
	exLo, exHi     int // the launch's execs
	opIdx          int // the launch's first op
	slot, ring     int // the launch's ring slot and the ring's length
}

// foldLaunchAVX2 folds the launch k describes for every lane: ready is the
// max over its predecessors' ring slots, every exec and its copy ops run
// as in foldLanes, and the launch's finish is stored into the ring and
// folded into the makespan (foldlanes_amd64.s).
//
//go:noescape
func foldLaunchAVX2(k *laneKernel)

// cpuid executes CPUID for leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register state the operating
// system saves.
func xgetbv() uint32

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the xmm and ymm state.
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// foldLanesAVX2 is foldLanes with each launch folded by the AVX2 kernel:
// Go walks the launches and repetitions, and foldLaunchAVX2 does every
// lane's float operations, in foldLanes' order and with its operands, so
// out is bit-identical to foldLanes' (FuzzFoldLanesKernel). Only hosts
// where haveAVX2 holds may call it.
func foldLanesAVX2(topo *topology, plan *PlacementPlan, sch *schedule, noise []lanes, out []Summary, fs *foldScratch) {
	perIter := len(topo.launch)
	fs.laneProc = resetZero(fs.laneProc, topo.nodes*machine.NumProcKinds)
	fs.laneCopy = resetZero(fs.laneCopy, topo.nodes)
	fs.laneFinish = resetZero(fs.laneFinish, perIter+1)
	// The kernel indexes the tape unchecked.
	if noise != nil && len(noise) < sch.numExecs {
		panic("sim: noise tape shorter than the schedule")
	}
	k := laneKernel{
		finish: &fs.laneFinish[0],
		proc:   &fs.laneProc[0],
		copies: &fs.laneCopy[0],
		ops:    unsafe.SliceData(sch.ops),
		execs:  unsafe.SliceData(sch.execs),
		noise:  unsafe.SliceData(noise),
		preds:  unsafe.SliceData(topo.preds),
		ring:   perIter + 1,
	}
	pos, row, slot := 0, 0, 0 // as in foldSchedule
	first, opIdx, exIdx := 0, 0, 0
	for rep := 0; rep <= sch.reps; rep++ {
		for li := first; li < len(sch.launches); li++ {
			l := sch.launches[li]
			k.predLo, k.predHi = int(topo.predOff[row]), int(topo.predOff[row+1])
			k.exLo, k.exHi = exIdx, int(l.execEnd)
			k.opIdx, k.slot = opIdx, slot
			foldLaunchAVX2(&k)
			opIdx, exIdx = int(l.opEnd), int(l.execEnd)
			pos, row, slot = pos+1, row+1, slot+1
			if pos == perIter {
				pos, row = 0, perIter
			}
			if slot > perIter {
				slot = 0
			}
		}
		first, opIdx, exIdx, noise = rewind(sch, noise)
		k.noise = unsafe.SliceData(noise)
	}
	for l := range out {
		out[l] = sch.summary(topo, plan, k.makespan[l], k.energy[l])
	}
}
