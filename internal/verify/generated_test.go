package verify

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
)

// flipFirstLiteral injects a single-literal fault: the first literal of
// node's first cube changes phase.
func flipFirstLiteral(t *testing.T, nw *network.Network, node string) {
	t.Helper()
	n := nw.Node(node)
	if n == nil {
		t.Fatalf("no node %q", node)
	}
	cov := n.Cover.Clone()
	c := cov.Cubes[0]
	for v := 0; v < c.NumVars(); v++ {
		switch c.Get(v) {
		case cube.Pos:
			c.Set(v, cube.Neg)
		case cube.Neg:
			c.Set(v, cube.Pos)
		default:
			continue
		}
		nw.SetNodeCover(node, cov)
		return
	}
	t.Fatalf("node %q: first cube has no literal", node)
}

// patternBits renders a failing pattern as one '0'/'1' per PI in sorted
// name order.
func patternBits(p map[string]bool) string {
	names := make([]string, 0, len(p))
	for pi := range p {
		names = append(names, pi)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, pi := range names {
		if p[pi] {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// TestCheckPinnedFaults pins the full Result of Check on injected faults,
// on the exhaustive path (a 16-input random DAG) and on the randomized path
// (a 60-input cone forest, past ExhaustiveLimit). The expected values were
// taken from the name-keyed per-word simulator this package used before the
// compiled simulation program; any change to pattern order, the random
// stream or the first-mismatch rule shows up here.
func TestCheckPinnedFaults(t *testing.T) {
	cases := []struct {
		shape         string
		pis           int
		node          string
		equivalent    bool
		exhaustive    bool
		failingPO     string
		pattern       string
		patternsTried int
	}{
		{"rand", 16, "n90", false, true, "n189", "1000000000000000", 2},
		{"rand", 16, "n150", false, true, "n180", "0000000000001000", 4097},
		{"rand", 16, "n60", false, true, "n175", "0000000000000100", 8193},
		{"rand", 16, "n120", false, true, "n120", "0000000001000001", 33281},
		{"cone", 0, "g3_n10_0", false, false, "g3_n16_0", "001001000011110100010101110100111000100111101101000100000011", 4},
		{"cone", 0, "g7_n2_0", false, false, "g7_n16_0", "111010101011010010011101001001001000110010100001010011011100", 6},
		{"cone", 0, "g9_n19_0", false, false, "g9_n19_0", "101000101011101100100110100111100110001000000000101111011011", 2},
		// An unobservable fault: random simulation passes and the SAT
		// miter proves the pair equivalent.
		{"cone", 0, "g5_n15_0", true, true, "", "", 32768},
	}
	for _, tc := range cases {
		t.Run(tc.shape+"/"+tc.node, func(t *testing.T) {
			a, err := bench.Generate(tc.shape, 200, tc.pis, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := a.Clone()
			flipFirstLiteral(t, b, tc.node)
			r, err := Check(a, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if r.Equivalent != tc.equivalent || r.Exhaustive != tc.exhaustive ||
				r.FailingPO != tc.failingPO || r.PatternsTried != tc.patternsTried ||
				patternBits(r.FailingPattern) != tc.pattern {
				t.Errorf("got Equivalent=%v Exhaustive=%v FailingPO=%q PatternsTried=%d pattern=%q; want %v %v %q %d %q",
					r.Equivalent, r.Exhaustive, r.FailingPO, r.PatternsTried, patternBits(r.FailingPattern),
					tc.equivalent, tc.exhaustive, tc.failingPO, tc.patternsTried, tc.pattern)
			}
		})
	}
}

// TestShrinkCounterexamplePinned pins ShrinkCounterexample's output on the
// counterexamples TestCheckPinnedFaults finds, taken from the name-keyed
// simulator like the values there.
func TestShrinkCounterexamplePinned(t *testing.T) {
	cases := []struct {
		shape string
		pis   int
		node  string
		want  string
	}{
		{"rand", 16, "n120", "0000000001000001"},
		{"cone", 0, "g3_n10_0", "000000000000000000000100000000000000000000000000000000000000"},
	}
	for _, tc := range cases {
		t.Run(tc.shape+"/"+tc.node, func(t *testing.T) {
			a, err := bench.Generate(tc.shape, 200, tc.pis, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := a.Clone()
			flipFirstLiteral(t, b, tc.node)
			r, err := Check(a, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := patternBits(ShrinkCounterexample(a, b, r.FailingPattern)); got != tc.want {
				t.Errorf("shrunk pattern = %q, want %q", got, tc.want)
			}
		})
	}
}

// BenchmarkVerifyCheck times one full equivalence check of a generated
// circuit against its clone, with allocs/op: the exhaustive path on a
// 16-input 200-gate random DAG (1024 words per network) and the randomized
// path plus SAT miter on a 60-input 200-gate cone forest.
func BenchmarkVerifyCheck(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shape string
		pis   int
	}{
		{"exhaustive/rand200x16", "rand", 16},
		{"randomized_sat/cone200x60", "cone", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			x, err := bench.Generate(bc.shape, 200, bc.pis, 1)
			if err != nil {
				b.Fatal(err)
			}
			y := x.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r, err := Check(x, y, 0); err != nil || !r.Equivalent {
					b.Fatalf("clone not equivalent: %+v %v", r, err)
				}
			}
		})
	}
}
