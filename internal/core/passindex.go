package core

import "repro/internal/network"

// passIndex is a per-commit-epoch snapshot of the live network's derived
// graph indexes: the fanout adjacency and the topological order (as a
// per-SigID position array). Network.FanoutIDs and Network.TopoOrderIDs
// each rebuild in O(V+E) per call; before this index existed the
// substitution driver paid that per *dividend* (TFOSetIDs inside candidate
// enumeration) and per *trial* (the topo walk inside windowFor), an O(V²)
// wall on 100k-gate circuits. The evaluator rebuilds the index lazily once
// per epoch (i.e. once per commit) and shares it read-only: workers
// only touch the immutable fanouts/topoPos slices; the enumeration scratch
// fields (tfo/cand stamps) belong to the serial side exclusively.
type passIndex struct {
	epoch   uint64
	nw      *network.Network
	fanouts [][]network.SigID
	topoIDs []network.SigID
	topoPos []int32 // by SigID: position in topoIDs, -1 for non-nodes

	// Serial-side enumeration scratch (candidateDivisors only): a stamp set
	// for the dividend's transitive fanout and one for the deduplicated
	// candidate walk, plus a shared DFS stack.
	tfoStamp  []uint32
	tfoCur    uint32
	candStamp []uint32
	candCur   uint32
	stack     []network.SigID
}

// matches reports whether the index is the valid snapshot for reader r at
// the given scratch epoch — the guard every concurrent consumer (windowFor)
// checks before trusting topoPos.
func (ix *passIndex) matches(r network.Reader, epoch uint64) bool {
	// Interface equality (not a type assertion, which the roview rule bans):
	// true exactly when r is the same *network.Network the index snapshots.
	return ix != nil && ix.epoch == epoch && network.Reader(ix.nw) == r
}

// index returns the evaluator's passIndex for nw at the current epoch,
// rebuilding it if the epoch advanced (a commit happened) or the
// target network changed. Serial-side only.
func (ev *evaluator) index(nw *network.Network) *passIndex {
	ix := ev.idx
	if ix != nil && ix.nw == nw && ix.epoch == ev.epoch {
		return ix
	}
	if ix == nil {
		ix = &passIndex{}
		ev.idx = ix
	}
	ix.nw = nw
	ix.epoch = ev.epoch
	ix.fanouts = nw.FanoutIDs()
	ix.topoIDs = nw.TopoOrderIDs()
	n := nw.NumSigs()
	if cap(ix.topoPos) < n {
		ix.topoPos = make([]int32, n)
	}
	ix.topoPos = ix.topoPos[:n]
	for i := range ix.topoPos {
		ix.topoPos[i] = -1
	}
	for pos, id := range ix.topoIDs {
		ix.topoPos[id] = int32(pos)
	}
	return ix
}

// beginTFO starts a fresh transitive-fanout stamp generation and marks the
// fanout cone of id (id itself included).
func (ix *passIndex) beginTFO(id network.SigID) {
	ix.tfoCur++
	if ix.tfoCur == 0 {
		for i := range ix.tfoStamp {
			ix.tfoStamp[i] = 0
		}
		ix.tfoCur = 1
	}
	ix.stack = append(ix.stack[:0], id)
	for len(ix.stack) > 0 {
		s := ix.stack[len(ix.stack)-1]
		ix.stack = ix.stack[:len(ix.stack)-1]
		if ix.tfoMark(s) {
			if int(s) < len(ix.fanouts) {
				ix.stack = append(ix.stack, ix.fanouts[s]...)
			}
		}
	}
}

func (ix *passIndex) tfoMark(id network.SigID) bool {
	for int(id) >= len(ix.tfoStamp) {
		ix.tfoStamp = append(ix.tfoStamp, 0)
	}
	if ix.tfoStamp[id] == ix.tfoCur {
		return false
	}
	ix.tfoStamp[id] = ix.tfoCur
	return true
}

func (ix *passIndex) inTFO(id network.SigID) bool {
	return int(id) < len(ix.tfoStamp) && ix.tfoStamp[id] == ix.tfoCur
}

// beginCand starts a fresh candidate-dedup stamp generation.
func (ix *passIndex) beginCand() {
	ix.candCur++
	if ix.candCur == 0 {
		for i := range ix.candStamp {
			ix.candStamp[i] = 0
		}
		ix.candCur = 1
	}
}

func (ix *passIndex) candMark(id network.SigID) bool {
	for int(id) >= len(ix.candStamp) {
		ix.candStamp = append(ix.candStamp, 0)
	}
	if ix.candStamp[id] == ix.candCur {
		return false
	}
	ix.candStamp[id] = ix.candCur
	return true
}
