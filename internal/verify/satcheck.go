package verify

import (
	"repro/internal/netlist"
	"repro/internal/network"
	"repro/internal/sat"
)

// satCheck decides equivalence with a SAT miter: both networks are Tseitin
// encoded over shared primary-input variables, the POs are XOR-ed, and the
// disjunction of the XORs asserted. UNSAT proves equivalence; a model is a
// counterexample. decided=false when the decision budget is exceeded.
func satCheck(a, b *network.Network, pis, pos []string) (Result, bool) {
	s := sat.New()
	s.MaxConflicts = 200_000

	piVar := make(map[string]int, len(pis))
	for _, pi := range pis {
		piVar[pi] = s.NewVar()
	}
	va := encodeNetwork(s, a, piVar)
	vb := encodeNetwork(s, b, piVar)

	var diffs []int
	for _, po := range pos {
		x, y := va[po], vb[po]
		d := s.NewVar()
		// d ↔ x ⊕ y
		s.AddClause(-d, x, y)
		s.AddClause(-d, -x, -y)
		s.AddClause(d, -x, y)
		s.AddClause(d, x, -y)
		diffs = append(diffs, d)
	}
	s.AddClause(diffs...)

	model, res := s.Solve()
	switch res {
	case sat.Unsat:
		return Result{Equivalent: true, Exhaustive: true}, true
	case sat.Sat:
		out := Result{Equivalent: false, FailingPattern: map[string]bool{}}
		for _, pi := range pis {
			out.FailingPattern[pi] = model[piVar[pi]]
		}
		// Identify a failing PO by simulation of the counterexample.
		if i := firstFailingPO(newSim(a, pis, pos), newSim(b, pis, pos), pis, out.FailingPattern); i >= 0 {
			out.FailingPO = pos[i]
		}
		return out, true
	default:
		return Result{}, false
	}
}

// encodeNetwork Tseitin-encodes a network's gate-level form, returning the
// SAT variable of each PO signal. PI variables are shared via piVar.
func encodeNetwork(s *sat.Solver, nw *network.Network, piVar map[string]int) map[string]int {
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
		case netlist.Input:
		case netlist.Not:
			x := gateVar[fan[0]]
			s.AddClause(gv, x)
			s.AddClause(-gv, -x)
		case netlist.And:
			if len(fan) == 0 {
				s.AddClause(gv) // empty AND = 1
				continue
			}
			long := make([]int, 0, len(fan)+1)
			long = append(long, gv)
			for _, f := range fan {
				s.AddClause(-gv, gateVar[f])
				long = append(long, -gateVar[f])
			}
			s.AddClause(long...)
		case netlist.Or:
			if len(fan) == 0 {
				s.AddClause(-gv) // empty OR = 0
				continue
			}
			long := make([]int, 0, len(fan)+1)
			long = append(long, -gv)
			for _, f := range fan {
				s.AddClause(gv, -gateVar[f])
				long = append(long, gateVar[f])
			}
			s.AddClause(long...)
		}
	}
	out := make(map[string]int, len(nw.POs()))
	for _, po := range nw.POs() {
		out[po] = gateVar[nl.Signal[po]]
	}
	return out
}
