// Posdivision demonstrates product-of-sum-form substitution, which the
// paper highlights as impossible for traditional SOP-bound approaches:
// f = (a+b)(c+d) is rewritten as f = d0·(c+d) using the existing node
// d0 = a + b, via the POS dual (Lemma 2) of the SOS machinery — division of
// the complements with a negative divisor literal.
package main

import (
	"fmt"

	"repro/internal/algebraic"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

func main() {
	nw := network.New("posdivision")
	for _, pi := range []string{"a", "b", "c", "d"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d0", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	// f = (a+b)(c+d) in SOP: ac + ad + bc + bd.
	nw.AddNode("f", []string{"a", "b", "c", "d"},
		cube.ParseCover(4, "ac + ad + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("d0")

	fmt.Println("before:")
	fmt.Print(nw.String())
	fmt.Printf("f factored: %s (%d literals)\n",
		algebraic.Factor(nw.Node("f").Cover), algebraic.FactorLits(nw.Node("f").Cover))

	res, ok := core.PosDivide(nw, "f", "d0", core.Extended)
	if !ok {
		panic("POS division failed")
	}
	fmt.Printf("\nPOS division: %d RAR wires removed\n", res.WiresRemoved)

	ref := nw.Clone()
	if err := nw.ReplaceNodeFunction("f", res.Fanins, res.Cover); err != nil {
		panic(err)
	}
	nw.NormalizeNode("f")

	fmt.Println("\nafter:")
	fmt.Print(nw.String())
	fmt.Printf("f factored: %s (%d literals)\n",
		algebraic.Factor(nw.Node("f").Cover), algebraic.FactorLits(nw.Node("f").Cover))

	if verify.Equivalent(ref, nw) {
		fmt.Println("\nequivalence check: PASS")
	} else {
		fmt.Println("\nequivalence check: FAIL")
	}
}
