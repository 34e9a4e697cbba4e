package opt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/opt"
	"repro/internal/script"
	"repro/internal/verify"
)

// TestSATSweepSuiteEquivalent sweeps every suite circuit, raw and after
// script A, and checks that each sweep terminates with a Check-clean
// network equivalent to its input. maj5 is among them: its sweep once did
// not return.
func TestSATSweepSuiteEquivalent(t *testing.T) {
	for _, name := range bench.Names() {
		for _, scriptA := range []bool{false, true} {
			label := name + "/raw"
			if scriptA {
				label = name + "/scriptA"
			}
			t.Run(label, func(t *testing.T) {
				nw := bench.Get(name)
				if scriptA {
					script.A(nw)
				}
				ref := nw.Clone()
				merged := opt.SATSweep(nw)
				if err := nw.Check(); err != nil {
					t.Fatalf("%d merges left an invalid network: %v", merged, err)
				}
				res, err := verify.Check(ref, nw, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equivalent {
					t.Fatalf("%d merges broke equivalence at PO %s", merged, res.FailingPO)
				}
			})
		}
	}
}
