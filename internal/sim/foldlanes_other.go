//go:build !amd64

package sim

// haveAVX2 is false off amd64: foldLanes is the only lane fold.
const haveAVX2 = false

// foldLanesAVX2 exists on amd64 only; hostLanes never selects it here.
func foldLanesAVX2(topo *topology, plan *PlacementPlan, sch *schedule, noise []lanes, out []Summary, fs *foldScratch) {
	panic("sim: the AVX2 lane fold runs on amd64 only")
}
