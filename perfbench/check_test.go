package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
)

// flipFirstLiteral complements the first specified literal of the first
// table row of the .names block defining signal; ok is false when it has
// no such row.
func flipFirstLiteral(text, signal string) (string, bool) {
	lines := strings.Split(text, "\n")
	in := false
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) > 0 && f[0] == ".names" {
			in = f[len(f)-1] == signal
			continue
		}
		if !in || len(f) != 2 {
			continue
		}
		row := []byte(f[0])
		for j, c := range row {
			if c == '0' || c == '1' {
				row[j] = '0' + '1' - c
				lines[i] = string(row) + " " + f[1]
				return strings.Join(lines, "\n"), true
			}
		}
	}
	return text, false
}

// optimized runs the flow on c serially and returns its output BLIF.
func optimized(t *testing.T, c circuit, w workload) string {
	t.Helper()
	r := runCircuit(c, w, 1, nil, 1)
	if r.err != nil {
		t.Fatalf("%s: %v", c.name, r.err)
	}
	return string(r.out)
}

func TestCheckerAcceptsTrueOutputAndRejectsFlippedCube(t *testing.T) {
	cone, err := bench.Generate("cone", 60, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		circuit circuit
		w       workload
	}{
		// 6 inputs: exhaustive.
		{circuit{name: "mult3", blif: []byte(blif.ToString(bench.Get("mult3")))}, workload{algebraic: true, config: core.ExtendedGDC}},
		// 18 inputs: random vectors.
		{circuit{name: cone.Name, blif: []byte(blif.ToString(cone))}, workload{config: core.Extended}},
	}
	for _, tc := range cases {
		out := optimized(t, tc.circuit, tc.w)
		if err := checkEquivalent(string(tc.circuit.blif), out, 1); err != nil {
			t.Errorf("%s: true output rejected: %v", tc.circuit.name, err)
		}
		nl, err := readBLIF(out)
		if err != nil {
			t.Fatal(err)
		}
		flipped, ok := flipFirstLiteral(out, nl.outputs[0])
		if !ok {
			t.Fatalf("%s: output %s has no literal to flip", tc.circuit.name, nl.outputs[0])
		}
		if err := checkEquivalent(string(tc.circuit.blif), flipped, 1); err == nil {
			t.Errorf("%s: output with one flipped cube accepted", tc.circuit.name)
		}
	}
}

func TestCheckerBLIFSemantics(t *testing.T) {
	// y = a AND b, k is constant 1 and z constant 0.
	want := ".model m\n.inputs a b\n.outputs y k z\n.names a b y\n11 1\n.names k\n1\n.names z\n.end\n"
	// The same functions with reordered interface lists and y through a buffer.
	same := ".model m\n.inputs b a\n.outputs z k y\n.names b a t\n11 1\n.names t y\n1 1\n.names k\n1\n.names z\n.end\n"
	if err := checkEquivalent(want, same, 1); err != nil {
		t.Errorf("equivalent netlist rejected: %v", err)
	}
	bad := map[string]string{
		"or":        ".inputs a b\n.outputs y k z\n.names a b y\n1- 1\n-1 1\n.names k\n1\n.names z\n.end\n",
		"interface": ".inputs a b c\n.outputs y k z\n.names a b y\n11 1\n.names k\n1\n.names z\n.end\n",
		"undefined": ".inputs a b\n.outputs y k z\n.names a q y\n11 1\n.names k\n1\n.names z\n.end\n",
		"cycle":     ".inputs a b\n.outputs y k z\n.names a z y\n11 1\n.names y z\n1 1\n.names k\n1\n.end\n",
		"offset":    ".inputs a b\n.outputs y k z\n.names a b y\n0- 0\n-0 0\n.names k\n1\n.names z\n.end\n",
		"latch":     ".inputs a b\n.outputs y k z\n.latch a y 0\n.end\n",
	}
	for name, got := range bad {
		if err := checkEquivalent(want, got, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
