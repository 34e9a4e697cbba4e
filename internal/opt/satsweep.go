package opt

import (
	"math/rand"
	"sort"

	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
	"repro/internal/sat"
)

// SATSweep merges functionally equivalent (and antivalent) internal nodes —
// the fraig-style sweeping pass: random simulation buckets candidate pairs
// by signature, a SAT miter proves each merge, and every use of the
// duplicate is rewired to the representative (through an inversion for
// antivalent pairs). Duplicated cones — carry-select adders, copied
// sub-circuits — collapse to one copy. Returns the number of merges.
func SATSweep(nw *network.Network) int {
	merged := 0
	for round := 0; round < 4; round++ {
		if !satSweepRound(nw, &merged) {
			break
		}
		nw.Sweep() // drop dead duplicates before re-bucketing
	}
	nw.Sweep()
	return merged
}

func satSweepRound(nw *network.Network, merged *int) bool {
	names := nw.TopoOrder()
	if len(names) < 2 {
		return false
	}
	// 1. Signatures from 256 random patterns (4 words).
	r := rand.New(rand.NewSource(0xFACADE))
	prog := nw.Compile()
	val := make([]uint64, prog.NumSigs())
	ids := make([]network.SigID, len(names))
	for i, n := range names {
		ids[i], _ = nw.IDOf(n)
	}
	sig := make(map[string][4]uint64, len(names))
	for w := 0; w < 4; w++ {
		for _, pi := range prog.PIs() {
			val[pi] = r.Uint64()
		}
		prog.Run(val)
		for i, n := range names {
			s := sig[n]
			s[w] = val[ids[i]]
			sig[n] = s
		}
	}
	neg := func(s [4]uint64) [4]uint64 {
		return [4]uint64{^s[0], ^s[1], ^s[2], ^s[3]}
	}

	// 2. Bucket by canonical signature (min of sig, ~sig).
	canon := func(s [4]uint64) ([4]uint64, bool) {
		n := neg(s)
		for i := range s {
			if s[i] != n[i] {
				if s[i] < n[i] {
					return s, false
				}
				return n, true
			}
		}
		return s, false
	}
	buckets := map[[4]uint64][]string{}
	inverted := map[string]bool{}
	for _, n := range names {
		c, inv := canon(sig[n])
		buckets[c] = append(buckets[c], n)
		inverted[n] = inv
	}

	// 3. For each bucket, try to merge later nodes into the earliest.
	level, _ := nw.Levels()
	var keys [][4]uint64
	for k, members := range buckets {
		if len(members) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return lessSig(keys[i], keys[j]) })

	changed := false
	for _, k := range keys {
		members := buckets[k]
		// Representative: shallowest, ties by name.
		sort.Slice(members, func(i, j int) bool {
			if level[members[i]] != level[members[j]] {
				return level[members[i]] < level[members[j]]
			}
			return members[i] < members[j]
		})
		rep := members[0]
		for _, dup := range members[1:] {
			if nw.Node(dup) == nil || nw.Node(rep) == nil {
				continue
			}
			inv := inverted[rep] != inverted[dup]
			if !provedEqual(nw, rep, dup, inv) {
				continue
			}
			if mergeNodes(nw, rep, dup, inv) {
				*merged++
				changed = true
			}
		}
	}
	return changed
}

func lessSig(a, b [4]uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// provedEqual decides rep ≡ dup (or rep ≡ ¬dup when inv) with a SAT miter
// over the whole network.
func provedEqual(nw *network.Network, rep, dup string, inv bool) bool {
	s := sat.New()
	s.MaxConflicts = 50_000
	piVar := map[string]int{}
	for _, pi := range nw.PIs() {
		piVar[pi] = s.NewVar()
	}
	b := netlist.FromNetwork(nw)
	nl := b.NL
	gateVar := make([]int, nl.NumGates())
	for g := 0; g < nl.NumGates(); g++ {
		if nl.KindOf(g) == netlist.Input {
			gateVar[g] = piVar[nl.NameOf(g)]
		} else {
			gateVar[g] = s.NewVar()
		}
	}
	for g := 0; g < nl.NumGates(); g++ {
		gv := gateVar[g]
		fan := nl.Fanins(g)
		switch nl.KindOf(g) {
		case netlist.Not:
			s.AddClause(gv, gateVar[fan[0]])
			s.AddClause(-gv, -gateVar[fan[0]])
		case netlist.And:
			if len(fan) == 0 {
				s.AddClause(gv)
				continue
			}
			long := []int{gv}
			for _, f := range fan {
				s.AddClause(-gv, gateVar[f])
				long = append(long, -gateVar[f])
			}
			s.AddClause(long...)
		case netlist.Or:
			if len(fan) == 0 {
				s.AddClause(-gv)
				continue
			}
			long := []int{-gv}
			for _, f := range fan {
				s.AddClause(gv, -gateVar[f])
				long = append(long, gateVar[f])
			}
			s.AddClause(long...)
		}
	}
	x, y := gateVar[nl.Signal[rep]], gateVar[nl.Signal[dup]]
	if inv {
		// UNSAT of (x == y) proves x ≡ ¬y.
		d := s.NewVar()
		s.AddClause(-d, x, -y)
		s.AddClause(-d, -x, y)
		s.AddClause(d)
	} else {
		d := s.NewVar()
		s.AddClause(-d, x, y)
		s.AddClause(-d, -x, -y)
		s.AddClause(d)
	}
	_, res := s.Solve()
	return res == sat.Unsat
}

// mergeNodes rewires every use of dup to rep (inverted when inv) and, when
// dup drives a primary output, turns dup into a buffer/inverter of rep.
// No-op merges (dup already a buffer/inverter of rep with no other use)
// return false so repeated rounds do not recount them.
func mergeNodes(nw *network.Network, rep, dup string, inv bool) bool {
	dn := nw.Node(dup)
	if dn == nil {
		return false
	}
	alreadyBuffer := len(dn.Fanins) == 1 && dn.Fanins[0] == rep &&
		dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].NumLits() == 1
	any := false
	for _, fo := range nw.Fanouts()[dup] {
		if nw.ReplaceFaninSignal(fo, dup, rep, inv) {
			any = true
		}
	}
	isPO := false
	for _, po := range nw.POs() {
		if po == dup {
			isPO = true
			break
		}
	}
	if isPO && !alreadyBuffer {
		ph := cube.Pos
		if inv {
			ph = cube.Neg
		}
		c := cube.New(1)
		c.Set(0, ph)
		if err := nw.ReplaceNodeFunction(dup, []string{rep}, cube.CoverOf(1, c)); err == nil {
			any = true
		}
	}
	return any
}
