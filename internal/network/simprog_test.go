package network_test

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
)

// runMinterms runs p over every minterm of its PIs (PI i of minterm m is
// bit i of m) and calls check once per 64-minterm word with the value
// buffer, the word's first minterm and the number of valid bits.
func runMinterms(p *network.SimProgram, check func(val []uint64, base uint64, valid int)) {
	pis := p.PIs()
	total := uint64(1) << len(pis)
	val := make([]uint64, p.NumSigs())
	for base := uint64(0); base < total; base += 64 {
		for i, pi := range pis {
			var w uint64
			for k := uint64(0); k < 64; k++ {
				if (base+k)>>uint(i)&1 == 1 {
					w |= 1 << k
				}
			}
			val[pi] = w
		}
		p.Run(val)
		valid := 64
		if total-base < 64 {
			valid = int(total - base)
		}
		check(val, base, valid)
	}
}

// TestSimProgramMatchesGlobalCover checks every PO of generated rand and
// cone networks against its symbolic collapse, minterm by minterm: the
// program and GlobalCover share no evaluation code.
func TestSimProgramMatchesGlobalCover(t *testing.T) {
	for _, g := range []struct {
		shape      string
		gates, pis int
		seed       int64
	}{
		{"rand", 40, 6, 1},
		{"rand", 60, 8, 2},
		{"rand", 30, 10, 3},
		{"cone", 40, 0, 1}, // two groups of 6 private PIs
		{"cone", 60, 0, 5},
	} {
		nw, err := bench.Generate(g.shape, g.gates, g.pis, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		pis := nw.PIs()
		p := nw.Compile()
		globals := make([]cube.Cover, len(nw.POs()))
		for j, po := range nw.POs() {
			globals[j] = nw.GlobalCover(po, pis)
		}
		runMinterms(p, func(val []uint64, base uint64, valid int) {
			for j, po := range p.POs() {
				for k := 0; k < valid; k++ {
					m := base + uint64(k)
					want := network.EvalCoverMinterm(globals[j], m)
					if got := val[po]>>uint(k)&1 == 1; got != want {
						t.Fatalf("%s %d/%d/%d: PO %s minterm %d: Run=%v GlobalCover=%v",
							g.shape, g.gates, g.pis, g.seed, nw.POs()[j], m, got, want)
					}
				}
			}
		})
	}
}

// scalarEval evaluates every node of nw on one PI assignment, one node at a
// time through its local cover (an undriven signal reads false).
func scalarEval(nw *network.Network, piVal map[string]bool) map[string]bool {
	v := make(map[string]bool, len(piVal))
	for pi, b := range piVal {
		v[pi] = b
	}
	for _, name := range nw.TopoOrder() {
		n := nw.Node(name)
		var m uint64
		for i, f := range n.Fanins {
			if v[f] {
				m |= 1 << uint(i)
			}
		}
		v[name] = network.EvalCoverMinterm(n.Cover, m)
	}
	return v
}

// TestSimProgramMatchesScalarEval checks every node of the perfbench-sized
// generated networks (16-input 200-gate rand DAG, 60-input cone forest) on
// random words against node-at-a-time scalar evaluation, reusing one value
// buffer across words.
func TestSimProgramMatchesScalarEval(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, g := range []struct {
		shape string
		pis   int
	}{{"rand", 16}, {"cone", 0}} {
		nw, err := bench.Generate(g.shape, 200, g.pis, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := nw.Compile()
		val := make([]uint64, p.NumSigs())
		for w := 0; w < 3; w++ {
			for _, pi := range p.PIs() {
				val[pi] = r.Uint64()
			}
			p.Run(val)
			for k := 0; k < 64; k += 7 {
				in := map[string]bool{}
				for i, pi := range p.PIs() {
					in[nw.PIs()[i]] = val[pi]>>uint(k)&1 == 1
				}
				want := scalarEval(nw, in)
				for _, name := range nw.TopoOrder() {
					id, _ := nw.IDOf(name)
					if got := val[id]>>uint(k)&1 == 1; got != want[name] {
						t.Fatalf("%s word %d bit %d: node %s Run=%v scalar=%v", g.shape, w, k, name, got, want[name])
					}
				}
			}
		}
	}
}

// TestSimProgramEdgeCases pins the degenerate covers and wiring: an empty
// cover is constant 0, a universe cube constant 1 (with and without fanins),
// a PO driven by a PI reads the PI's word, and an undriven fanin reads 0 —
// also when the buffer is reused across words.
func TestSimProgramEdgeCases(t *testing.T) {
	nw := network.New("edge")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("zero", []string{"a"}, cube.NewCover(1))
	nw.AddNode("zero0", nil, cube.NewCover(0))
	nw.AddNode("one", []string{"a"}, cube.CoverOf(1, cube.New(1)))
	nw.AddNode("one0", nil, cube.CoverOf(0, cube.New(0)))
	nw.AddNode("u", []string{"b", "ghost"}, cube.ParseCover(2, "a + b")) // ghost undriven
	nw.AddNode("v", []string{"ghost", "a"}, cube.ParseCover(2, "a'b"))   // = a
	for _, po := range []string{"zero", "zero0", "one", "one0", "a", "u", "v"} {
		nw.AddPO(po)
	}
	p := nw.Compile()
	val := make([]uint64, p.NumSigs())
	for _, in := range [][2]uint64{{0xF0F0, 0xFF00}, {0x1234, 0xCAFE}, {^uint64(0), 0}} {
		pis := p.PIs()
		val[pis[0]], val[pis[1]] = in[0], in[1]
		p.Run(val)
		want := []uint64{0, 0, ^uint64(0), ^uint64(0), in[0], in[1], in[0]}
		for j, po := range p.POs() {
			if val[po] != want[j] {
				t.Errorf("a=%#x b=%#x: PO %s = %#x, want %#x", in[0], in[1], nw.POs()[j], val[po], want[j])
			}
		}
		sim := nw.Simulate(map[string]uint64{"a": in[0], "b": in[1]})
		for j, po := range nw.POs() {
			if sim[po] != want[j] {
				t.Errorf("Simulate a=%#x b=%#x: PO %s = %#x, want %#x", in[0], in[1], po, sim[po], want[j])
			}
		}
	}
}

// TestSimProgramRunAllocs pins Run as allocation-free.
func TestSimProgramRunAllocs(t *testing.T) {
	nw, err := bench.Generate("rand", 200, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := nw.Compile()
	val := make([]uint64, p.NumSigs())
	for i, pi := range p.PIs() {
		val[pi] = uint64(i) * 0x9E3779B97F4A7C15
	}
	if a := testing.AllocsPerRun(100, func() { p.Run(val) }); a != 0 {
		t.Errorf("Run allocates %v times per word, want 0", a)
	}
}
