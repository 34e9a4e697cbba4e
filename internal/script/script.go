// Package script reproduces the SIS command scripts of the paper's
// experiments: Script A (eliminate 0; simplify), Script B (+ gcx), Script C
// (+ gkx), and script.algebraic with a pluggable resubstitution step so the
// SIS baseline and the three RAR configurations can be compared inside the
// same flow (Tables II–V).
package script

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/opt"
)

// Resub is a pluggable resubstitution step.
type Resub func(nw *network.Network)

// ResubSIS is the baseline: algebraic resubstitution with complements
// (the paper's `resub -d`).
func ResubSIS(nw *network.Network) { opt.ResubAlgebraic(nw, true) }

// ResubRAR returns the paper's Boolean substitution in the given
// configuration; POS-form substitution and multi-node divisor pooling are
// enabled as in the paper.
func ResubRAR(cfg core.Config) Resub {
	return ResubRARWith(core.Options{Config: cfg, POS: true, Pool: true}, nil)
}

// ResubRARWith returns a resubstitution step running core.Substitute with
// explicit options (the paper's defaults are NOT filled in — set POS/Pool
// yourself). When acc is non-nil, each invocation's statistics are
// accumulated into it, so a whole flow's substitution work can be reported.
func ResubRARWith(o core.Options, acc *core.Stats) Resub {
	return func(nw *network.Network) {
		st := core.Substitute(nw, o)
		if acc != nil {
			acc.Accumulate(st)
		}
	}
}

// A prepares a circuit with Script A: `eliminate 0; simplify`. Collapsing
// single-fanout nodes builds the complex gates substitution feeds on.
func A(nw *network.Network) {
	nw.Sweep()
	nw.Eliminate(0)
	opt.SimplifyAll(nw)
}

// B is Script B: `eliminate 0; simplify; gcx`.
func B(nw *network.Network) {
	A(nw)
	opt.Gcx(nw)
	nw.Sweep()
}

// C is Script C: `eliminate 0; simplify; gkx`.
func C(nw *network.Network) {
	A(nw)
	opt.Gkx(nw)
	nw.Sweep()
}

// Algebraic runs the script.algebraic flow with every `resub` occurrence
// replaced by the supplied step (Table V's methodology). The sequence
// mirrors the SIS distribution script: sweep/eliminate, simplify, then
// alternating extraction and resubstitution rounds, closing with eliminate
// and good decomposition.
func Algebraic(nw *network.Network, resub Resub) {
	nw.Sweep()
	nw.Eliminate(5)
	opt.SimplifyAll(nw)
	resub(nw)

	opt.Gkx(nw)
	resub(nw)
	nw.Sweep()

	opt.Gcx(nw)
	resub(nw)
	nw.Sweep()

	opt.Gkx(nw)
	resub(nw)
	nw.Sweep()

	nw.Eliminate(0)
	opt.Decomp(nw)
	nw.Sweep()
}

// Boolean runs a script.boolean-style flow — this repository's extension
// experiment, not one of the paper's tables: the don't-care machinery
// (full_simplify with implication-derived SDCs, whole-network redundancy
// removal) is interleaved with the pluggable resubstitution step. XOR-heavy
// circuits that script.algebraic cannot improve respond to this flow.
func Boolean(nw *network.Network, resub Resub) {
	nw.Sweep()
	nw.Eliminate(2)
	opt.SimplifyAll(nw)
	opt.FullSimplify(nw, 1)
	resub(nw)

	opt.Gkx(nw)
	resub(nw)
	nw.Sweep()

	opt.RemoveRedundancies(nw, 1)
	opt.FullSimplify(nw, 1)
	resub(nw)

	nw.Eliminate(0)
	opt.Decomp(nw)
	nw.Sweep()
}

// Prepare dispatches the preparation script by table number (2 → A, 3 → B,
// 4 → C). Table 5 uses Algebraic directly and has no separate preparation.
func Prepare(table int, nw *network.Network) {
	switch table {
	case 2:
		A(nw)
	case 3:
		B(nw)
	case 4:
		C(nw)
	default:
		panic("script: no preparation script for this table")
	}
}
