package network

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cube"
)

func TestSimulateMissingPIPanics(t *testing.T) {
	nw := buildSmall()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Simulate with a missing PI did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "b") {
			t.Errorf("panic message does not name the missing PI: %v", r)
		}
	}()
	// "b" omitted: historically this silently simulated b as constant 0.
	nw.Simulate(map[string]uint64{"a": 1, "c": 1})
}

// evalCoverMinterm evaluates a cover on one full assignment (variable i of
// the cover = bit i of m). Reference semantics for the property test below.
func evalCoverMinterm(cov cube.Cover, m uint64) bool {
	for _, c := range cov.Cubes {
		sat := true
		for _, v := range c.Lits() {
			bit := m>>uint(v)&1 == 1
			if (c.Get(v) == cube.Pos) != bit {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

// TestSimulateMatchesGlobalCover cross-checks the two evaluation paths the
// repository relies on: word-parallel simulation (SimProgram through
// Simulate) and exhaustive symbolic collapse (GlobalCover). On random small
// networks every minterm must agree.
func TestSimulateMatchesGlobalCover(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		nPI := 3 + r.Intn(3) // 3..5 PIs: all minterms fit in one 64-bit word
		nw := randomNetwork(r, nPI, 4+r.Intn(4))
		pis := nw.PIs()
		total := uint64(1) << uint(nPI)

		// Pack minterm k into bit k of each PI word: PI i of minterm k is
		// bit i of k.
		in := map[string]uint64{}
		for i, pi := range pis {
			var w uint64
			for k := uint64(0); k < total; k++ {
				if k>>uint(i)&1 == 1 {
					w |= 1 << k
				}
			}
			in[pi] = w
		}
		sim := nw.Simulate(in)

		for _, po := range nw.POs() {
			g := nw.GlobalCover(po, pis)
			for k := uint64(0); k < total; k++ {
				want := evalCoverMinterm(g, k)
				got := sim[po]>>k&1 == 1
				if want != got {
					t.Fatalf("trial %d: PO %s minterm %d: GlobalCover=%v Simulate=%v\n%s",
						trial, po, k, want, got, nw)
				}
			}
		}
	}
}
