#include "textflag.h"
#include "go_asm.h"

// The AVX2 lane fold: one call folds one launch for all laneWidth (8)
// lanes, each lane block held in two ymm registers, low lanes first.
// Every float operation is foldLanes' own, in its order: in Go assembler
// VMAXPD b, a, dst computes a > b ? a : b, which is fmax(a, b) and each
// `if a > b { b = a }` bit for bit, NaN and signed zeros included, and a
// product and a sum stay two roundings (VMULPD then VADDPD, no FMA). Which
// payload an add or a multiply of two NaNs returns is the one thing left
// open: the hardware returns its first operand's, Go does not specify it,
// and its compiler commutes these operations differently in different
// builds (with -race, for one), so the kernel keeps the source's order.
//
// Registers across the exec loop:
//   Y0, Y1    ready
//   Y2, Y3    taskFinish
//   Y4, Y5    energy
//   Y6, Y7    t, the copy chain's time
//   Y8, Y9    copyDone
//   DI        k
//   R8        k.proc
//   R9        k.copies
//   R10       k.ops
//   R11       the exec's noise entry, 0 without noise
//   R12       the exec
//   R13       the execs left
//   R14       opIdx

// func foldLaunchAVX2(k *laneKernel)
TEXT ·foldLaunchAVX2(SB), NOSPLIT, $0-8
	MOVQ k+0(FP), DI

	// ready = max over the predecessors' ring slots, slot - d wrapped
	// into the ring.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   laneKernel_finish(DI), R8
	MOVQ   laneKernel_slot(DI), R9
	MOVQ   laneKernel_ring(DI), R10
	MOVQ   laneKernel_preds(DI), SI
	MOVQ   laneKernel_predLo(DI), CX
	MOVQ   laneKernel_predHi(DI), DX
	CMPQ   CX, DX
	JGE    execs

preds:
	MOVLQSX (SI)(CX*4), AX
	MOVQ    R9, BX
	SUBQ    AX, BX
	LEAQ    (BX)(R10*1), AX
	TESTQ   BX, BX
	CMOVQLT AX, BX
	IMUL3Q  $const_laneBytes, BX, BX
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD 32(R8)(BX*1), Y3
	VMAXPD  Y0, Y2, Y0
	VMAXPD  Y1, Y3, Y1
	INCQ    CX
	CMPQ    CX, DX
	JLT     preds

execs:
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVUPD laneKernel_energy(DI), Y4
	VMOVUPD laneKernel_energy+32(DI), Y5
	MOVQ    laneKernel_exLo(DI), CX
	MOVQ    laneKernel_exHi(DI), R13
	SUBQ    CX, R13
	JLE     launched
	MOVQ    laneKernel_proc(DI), R8
	MOVQ    laneKernel_copies(DI), R9
	MOVQ    laneKernel_ops(DI), R10
	MOVQ    laneKernel_opIdx(DI), R14
	IMUL3Q  $execRec__size, CX, R12
	ADDQ    laneKernel_execs(DI), R12
	MOVQ    laneKernel_noise(DI), R11
	TESTQ   R11, R11
	JEQ     exec
	IMUL3Q  $const_laneBytes, CX, CX
	ADDQ    CX, R11

exec:
	// t = copyDone = ready; without copies copyDone stays ready, which
	// is foldLanes' fmax(ready, ready) bit for bit.
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	VMOVAPD Y0, Y8
	VMOVAPD Y1, Y9
	MOVLQSX execRec_opEnd(R12), DX
	CMPQ    R14, DX
	JGE     copied
	IMUL3Q  $copyOp__size, R14, BX
	ADDQ    R10, BX

op:
	CMPB    copyOp_chainFirst(BX), $0
	JEQ     chained
	VMAXPD  Y6, Y8, Y8 // copyDone = fmax(copyDone, t)
	VMAXPD  Y7, Y9, Y9
	VMOVAPD Y0, Y6     // t = ready
	VMOVAPD Y1, Y7

chained:
	// avail = the network's timeline or the source node's copy engine.
	MOVLQSX copyOp_srcNode(BX), AX
	IMUL3Q  $const_laneBytes, AX, AX
	ADDQ    R9, AX
	LEAQ    laneKernel_net(DI), SI
	CMPB    copyOp_network(BX), $0
	CMOVQNE SI, AX

	// avail = t = fmax(t, avail) + durA + durB
	VMAXPD       (AX), Y6, Y6
	VMAXPD       32(AX), Y7, Y7
	VBROADCASTSD copyOp_durA(BX), Y10
	VBROADCASTSD copyOp_durB(BX), Y11
	VADDPD       Y10, Y6, Y6
	VADDPD       Y10, Y7, Y7
	VADDPD       Y11, Y6, Y6
	VADDPD       Y11, Y7, Y7
	VMOVUPD      Y6, (AX)
	VMOVUPD      Y7, 32(AX)
	ADDQ         $copyOp__size, BX
	INCQ         R14
	CMPQ         R14, DX
	JLT          op
	VMAXPD       Y6, Y8, Y8 // copyDone = fmax(copyDone, t)
	VMAXPD       Y7, Y9, Y9

copied:
	// dur (Y10, Y11) = durBase × the exec's noise
	VBROADCASTSD execRec_durBase(R12), Y10
	TESTQ        R11, R11
	JEQ          noiseless
	VMULPD       32(R11), Y10, Y11
	VMULPD       (R11), Y10, Y10
	ADDQ         $const_laneBytes, R11
	JMP          timed

noiseless:
	VMOVAPD Y10, Y11

timed:
	// proc = fin = fmax(copyDone, proc) + dur
	MOVLQSX execRec_node(R12), AX
	IMUL3Q  $const_procKinds, AX, AX
	MOVBQZX execRec_kind(R12), SI
	ADDQ    SI, AX
	IMUL3Q  $const_laneBytes, AX, AX
	ADDQ    R8, AX
	VMAXPD  (AX), Y8, Y12
	VMAXPD  32(AX), Y9, Y13
	VADDPD  Y10, Y12, Y12
	VADDPD  Y11, Y13, Y13
	VMOVUPD Y12, (AX)
	VMOVUPD Y13, 32(AX)

	// taskFinish = fin > taskFinish ? fin : taskFinish
	VMAXPD Y2, Y12, Y2
	VMAXPD Y3, Y13, Y3

	// energy += activeF × dur × powerW
	VBROADCASTSD execRec_activeF(R12), Y14
	VBROADCASTSD execRec_powerW(R12), Y15
	VMULPD       Y10, Y14, Y12
	VMULPD       Y11, Y14, Y13
	VMULPD       Y15, Y12, Y12
	VMULPD       Y15, Y13, Y13
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5

	ADDQ $execRec__size, R12
	DECQ R13
	JNZ  exec

launched:
	// ring[slot] = taskFinish; makespan = taskFinish > makespan ?
	// taskFinish : makespan
	VMOVUPD Y4, laneKernel_energy(DI)
	VMOVUPD Y5, laneKernel_energy+32(DI)
	MOVQ    laneKernel_slot(DI), AX
	IMUL3Q  $const_laneBytes, AX, AX
	ADDQ    laneKernel_finish(DI), AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	VMAXPD  laneKernel_makespan(DI), Y2, Y2
	VMAXPD  laneKernel_makespan+32(DI), Y3, Y3
	VMOVUPD Y2, laneKernel_makespan(DI)
	VMOVUPD Y3, laneKernel_makespan+32(DI)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
