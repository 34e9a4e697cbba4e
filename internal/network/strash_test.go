package network

import (
	"testing"

	"repro/internal/cube"
)

// buildTwinCones returns a network carrying two structurally identical
// cones under different names (g1/h1 and g2/h2), one fanin-permuted copy
// (g3), and one functionally different node (g4):
//
//	g1 = ab      h1 = g1 + c
//	g2 = ab      h2 = g2 + c
//	g3 = ab      (declared with fanins [b, a] and the cover columns swapped)
//	g4 = a + b
func buildTwinCones() *Network {
	nw := New("twins")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddPI("c")
	nw.AddNode("g1", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("h1", []string{"g1", "c"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("g2", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("h2", []string{"g2", "c"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("g3", []string{"b", "a"}, cube.ParseCover(2, "ab"))
	nw.AddNode("g4", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddPO("h1")
	nw.AddPO("h2")
	return nw
}

func TestStrashMergesEquivalentCones(t *testing.T) {
	nw := buildTwinCones()
	st := nw.Strash()

	rep := func(name string) SigID {
		id, ok := nw.IDOf(name)
		if !ok {
			t.Fatalf("no id for %q", name)
		}
		return st.Rep(id)
	}

	// PIs represent themselves.
	for _, pi := range nw.PIs() {
		id, _ := nw.IDOf(pi)
		if st.Rep(id) != id {
			t.Errorf("PI %s rep = %d, want itself", pi, st.Rep(id))
		}
	}
	// The twin AND nodes collapse onto the first one.
	if rep("g2") != rep("g1") {
		t.Errorf("g2 rep %d != g1 rep %d", rep("g2"), rep("g1"))
	}
	// The fanin-permuted copy canonicalizes onto the same representative.
	if rep("g3") != rep("g1") {
		t.Errorf("fanin-permuted g3 rep %d != g1 rep %d", rep("g3"), rep("g1"))
	}
	// Equivalence propagates through the cone: h2's fanin representative is
	// g1, so h2 collapses onto h1.
	if rep("h2") != rep("h1") {
		t.Errorf("h2 rep %d != h1 rep %d", rep("h2"), rep("h1"))
	}
	// A different function over the same fanins stays unique.
	if rep("g4") == rep("g1") {
		t.Error("g4 (a+b) merged with g1 (ab)")
	}
	if st.Merged != 3 {
		t.Errorf("Merged = %d, want 3 (g2, g3, h2)", st.Merged)
	}
}

func TestStrashNoFalseMergeOnRename(t *testing.T) {
	// Strash sees structure only — a clone with every node renamed must
	// produce the same representative pattern.
	nw := buildTwinCones()
	st1 := nw.Strash()
	if st1.Merged == 0 {
		t.Fatal("nothing merged on the twin network")
	}
	// Re-run on the same network: deterministic.
	st2 := nw.Strash()
	for i := range st1.rep {
		if st1.rep[i] != st2.rep[i] {
			t.Fatalf("Strash not deterministic at id %d", i)
		}
	}
}
