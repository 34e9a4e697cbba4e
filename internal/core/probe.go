package core

import "repro/internal/network"

// PlannerBookkeepingProbe runs one wave of the planner's per-node
// bookkeeping — divisor-candidate enumeration through the sigCache and
// complCache, and SigID-memoized factored-literal costing — over every
// node of nw, without planning or committing anything. Enumeration is the
// engine's own: support-local, through a pass index of nw built once up
// front, as Substitute builds one per commit epoch. It is the seam
// BenchmarkPlannerBookkeeping measures: this bookkeeping is exactly the
// state the names→IDs refactor moved off string-keyed maps onto
// SigID-indexed epoch arenas, so its allocs/op is the surface the idmap
// and hotalloc analyzers guard statically and the bench gate guards at
// runtime. Returns the candidate count and summed factored-literal cost so
// callers can sink the work.
func PlannerBookkeepingProbe(nw *network.Network, opt Options) (candidates, lits int) {
	sigs := newSigCache(nw)
	cc := newComplCache()
	ix := newEvaluator(1).index(nw)
	sc := newScratch()
	sc.pin = nw
	sc.epoch = 1
	for _, id := range nw.TopoOrderIDs() {
		fn := nw.NodeByID(id)
		if fn == nil || fn.Cover.IsZero() {
			continue
		}
		cands := candidateDivisors(nw, sigs, cc, fn.Name, opt, ix)
		candidates += len(cands)
		lits += sc.factorLits(id, fn.Cover)
		for _, c := range cands {
			did, ok := nw.IDOf(c.name)
			if !ok {
				continue
			}
			if dn := nw.NodeByID(did); dn != nil {
				lits += sc.factorLits(did, dn.Cover)
			}
		}
	}
	return candidates, lits
}
