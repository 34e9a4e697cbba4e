package core

import (
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/network"
)

// This file implements the generalization at the end of Section IV: when
// searching for a divisor for f, the cubes of SEVERAL existing nodes are
// pooled and treated as if they came from one node. Each wire of f votes
// over the whole pool in a single implication run; the selected core
// divisor may then combine cubes that no single node exposes. When the core
// comes from one node, that node is decomposed exactly as in single-divisor
// extended division; a cross-node core becomes a standalone new node used
// by f (its cost is charged to the acceptance check).

// PoolEntry identifies one pooled divisor cube.
type PoolEntry struct {
	Node    string
	CubeIdx int
}

// PooledVote is a vote over the pooled cube set.
type PooledVote struct {
	CubeIdx   int // cube of f owning the wire
	Var       int // wire's variable in f's local space
	Candidate uint64
	Valid     bool
}

// PooledVoteTable computes votes for dividing f over the pooled cubes of
// the given divisor nodes (first maxCoreCubes pooled cubes vote). Returns
// the votes, the pool layout, the union signal space used for validity
// checks, and ok.
func PooledVoteTable(nw network.Reader, f string, divisors []string, cfg Config) ([]PooledVote, []PoolEntry, []string, bool) {
	return pooledVoteTable(newScratch(), nw, f, divisors, cfg)
}

// pooledVoteTable is PooledVoteTable with an explicit scratch arena.
func pooledVoteTable(sc *scratch, nw network.Reader, f string, divisors []string, cfg Config) ([]PooledVote, []PoolEntry, []string, bool) {
	fn := nw.Node(f)
	if fn == nil || len(divisors) == 0 {
		return nil, nil, nil, false
	}
	union := append([]string(nil), fn.Fanins...)
	for _, d := range divisors {
		dn := nw.Node(d)
		if dn == nil || d == f || nw.DependsOn(d, f) {
			return nil, nil, nil, false
		}
		union = unionSignals(union, dn.Fanins)
	}

	b := sc.baseBuild(nw)
	nl := b.NL
	ngF := b.Nodes[f]

	opt := atpg.Options{}
	stopAfter := 1
	if cfg == ExtendedGDC {
		opt.Learn = true
		stopAfter = -1
	} else {
		scope := localScope(b, nl, f, divisors[0])
		for _, d := range divisors[1:] {
			//bdslint:ignore maporder order-invisible set union into scope
			for g := range localScope(b, nl, f, d) {
				scope[g] = true
			}
		}
		opt.Scope = scope
	}
	e := sc.engine(nl, opt)

	// Pool layout and per-entry cube in the union space.
	var pool []PoolEntry
	var poolGates []int
	var poolCubesU []cube.Cube
	for _, d := range divisors {
		dn := nw.Node(d)
		dU := network.RemapCover(dn.Cover, dn.Fanins, union)
		for k := range dn.Cover.Cubes {
			if len(pool) >= maxCoreCubes {
				break
			}
			pool = append(pool, PoolEntry{Node: d, CubeIdx: k})
			poolGates = append(poolGates, b.Nodes[d].Cubes[k])
			poolCubesU = append(poolCubesU, dU.Cubes[k])
		}
	}
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)

	var votes []PooledVote
	for ci, g := range ngF.Cubes {
		c := fn.Cover.Cubes[ci]
		for pi, v := range c.Lits() {
			vote := PooledVote{CubeIdx: ci, Var: v}
			e.Reset()
			fault := atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pi}, Stuck: atpg.One}
			consistent := atpg.MandatoryAssignments(e, nl, fault, stopAfter) && e.Propagate()
			if !consistent {
				vote.Candidate = maskAll(len(pool))
				vote.Valid = true
				votes = append(votes, vote)
				continue
			}
			for k, pg := range poolGates {
				if e.Val(pg) == atpg.Zero {
					vote.Candidate |= 1 << k
				}
			}
			if vote.Candidate != 0 {
				vote.Valid = pooledCandidateValid(vote.Candidate, poolCubesU, fU.Cubes[ci])
			}
			votes = append(votes, vote)
		}
	}
	return votes, pool, union, true
}

func pooledCandidateValid(mask uint64, poolCubes []cube.Cube, fCube cube.Cube) bool {
	for k := range poolCubes {
		if mask&(1<<k) != 0 && poolCubes[k].Contains(fCube) {
			return true
		}
	}
	return false
}

// SelectPooledCore mirrors SelectCore over the pool.
func SelectPooledCore(votes []PooledVote, poolCubes []cube.Cube, fU cube.Cover) (uint64, int) {
	seen := make(map[uint64]bool)
	var masks []uint64
	for _, v := range votes {
		if v.Valid && v.Candidate != 0 && !seen[v.Candidate] {
			seen[v.Candidate] = true
			masks = append(masks, v.Candidate)
		}
	}
	if len(masks) == 0 {
		return 0, 0
	}
	const closureCap = 512
	for i := 0; i < len(masks) && len(masks) < closureCap; i++ {
		for j := i + 1; j < len(masks) && len(masks) < closureCap; j++ {
			m := masks[i] & masks[j]
			if m != 0 && !seen[m] {
				seen[m] = true
				masks = append(masks, m)
			}
		}
	}
	best, bestScore := uint64(0), 0
	for _, m := range masks {
		score := 0
		for _, v := range votes {
			if v.Valid && v.Candidate&m == m && pooledCandidateValid(m, poolCubes, fU.Cubes[v.CubeIdx]) {
				score++
			}
		}
		if score > bestScore || (score == bestScore && onesCount(m) > onesCount(best)) {
			best, bestScore = m, score
		}
	}
	return best, bestScore
}

func onesCount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// PooledExtendedDivide runs extended division of f over a divisor pool. The
// returned network is a rewritten clone; dec describes the decomposition
// (dec.CoreName is the new core node; when the core spans several divisor
// nodes, no divisor is rewritten and the core stands alone).
func PooledExtendedDivide(nw network.Reader, f string, divisors []string, cfg Config) (*network.Network, *DivideResult, *Decomposition, bool) {
	work, res, dec, ok := pooledExtendedDivide(newScratch(), nw, f, divisors, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	return materializeTrial(work), res, dec, true
}

// pooledExtendedDivide is PooledExtendedDivide with an explicit scratch
// arena. Both paths return an overlay delta over nw: a single-node core is
// extendedDivide's, and a cross-node core is a local rewrite that adds the
// core and replaces f, touching nothing else.
func pooledExtendedDivide(sc *scratch, nw network.Reader, f string, divisors []string, cfg Config) (*network.Overlay, *DivideResult, *Decomposition, bool) {
	votes, pool, union, ok := pooledVoteTable(sc, nw, f, divisors, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	fn := nw.Node(f)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	poolCubesU := make([]cube.Cube, len(pool))
	for k, pe := range pool {
		dn := nw.Node(pe.Node)
		dU := network.RemapCover(dn.Cover, dn.Fanins, union)
		poolCubesU[k] = dU.Cubes[pe.CubeIdx]
	}
	mask, score := SelectPooledCore(votes, poolCubesU, fU)
	if mask == 0 || score == 0 {
		return nil, nil, nil, false
	}

	// Which nodes contribute to the core? The pool holds at most four
	// entries, so the contributing-node set is a slice scan rather than a
	// map (and its first-appearance order is the pool's deterministic order
	// for free).
	var contribNodes []string
	for k := range pool {
		if mask&(1<<k) != 0 && indexOf(contribNodes, pool[k].Node) < 0 {
			contribNodes = append(contribNodes, pool[k].Node)
		}
	}
	if len(contribNodes) == 1 {
		return extendedDivide(sc, nw, f, contribNodes[0], cfg)
	}

	// Cross-node core: add it as a standalone node over the union of the
	// contributing cubes' signals, then basic-divide f by it.
	work := sc.trialClone(nw)
	coreName := work.FreshName("bdp")
	coreCover := cube.NewCover(len(union))
	for k := range pool {
		if mask&(1<<k) != 0 {
			coreCover.Cubes = append(coreCover.Cubes, poolCubesU[k].Clone())
		}
	}
	work.AddNode(coreName, union, coreCover.SCC())
	work.NormalizeNode(coreName)
	if c := work.Node(coreName).Cover; c.NumCubes() == 1 && c.Cubes[0].NumLits() == 1 {
		// A single-literal core is a wire, not a divisor (basicDivide
		// refuses constant ones itself).
		return nil, nil, nil, false
	}

	res, ok := basicDivide(sc, work, f, coreName, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	if err := work.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
		return nil, nil, nil, false
	}
	work.NormalizeNode(f)
	if work.Node(f).FaninIndex(coreName) < 0 {
		// The division ended up not using the core: nothing gained.
		return nil, nil, nil, false
	}
	return overlayDelta(nw, work, coreName, f), res, &Decomposition{CoreName: coreName, CoreMask: mask}, true
}
