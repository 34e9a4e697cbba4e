package main

// An output checker independent of the program under test: its own minimal
// BLIF reader and a 64-way bit-parallel evaluator. It shares no code with
// the repository's blif, network or verify packages, so a bug there cannot
// hide itself.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// exhaustivePIs is the input count up to which the checker enumerates every
// input vector; wider circuits get checkWords random 64-vector words.
const (
	exhaustivePIs = 16
	checkWords    = 256
)

// gate is one .names table: each row is the input part of an onset cube
// over fanins.
type gate struct {
	fanins []string
	rows   []string
}

// netlist is a combinational BLIF model, reduced to what evaluation needs.
type netlist struct {
	inputs, outputs []string
	gates           map[string]*gate
}

// readBLIF parses the subset of BLIF that blif.Write emits: .model,
// .inputs, .outputs, .names with onset rows, and .end. Anything else is an
// error, so an output the checker cannot read counts as a failure.
func readBLIF(text string) (*netlist, error) {
	nl := &netlist{gates: make(map[string]*gate)}
	var cur *gate
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if strings.HasPrefix(f[0], ".") {
			cur = nil
		}
		switch f[0] {
		case ".model":
		case ".inputs":
			nl.inputs = append(nl.inputs, f[1:]...)
		case ".outputs":
			nl.outputs = append(nl.outputs, f[1:]...)
		case ".names":
			if len(f) < 2 {
				return nil, fmt.Errorf("line %d: .names without an output", i+1)
			}
			out := f[len(f)-1]
			if _, dup := nl.gates[out]; dup {
				return nil, fmt.Errorf("line %d: %s defined twice", i+1, out)
			}
			cur = &gate{fanins: f[1 : len(f)-1]}
			nl.gates[out] = cur
		case ".end":
			return nl, nil
		default:
			if strings.HasPrefix(f[0], ".") {
				return nil, fmt.Errorf("line %d: unsupported directive %s", i+1, f[0])
			}
			in := ""
			if len(f) == 2 {
				in = f[0]
			}
			if cur == nil || len(f) > 2 || f[len(f)-1] != "1" || len(in) != len(cur.fanins) || strings.Trim(in, "01-") != "" {
				return nil, fmt.Errorf("line %d: malformed or unsupported row %q", i+1, line)
			}
			cur.rows = append(cur.rows, in)
		}
	}
	return nl, nil
}

// evaluator computes every signal of a netlist for 64 input vectors at once.
type evaluator struct {
	index map[string]int
	pis   []int
	order []compiled
	vals  []uint64
}

type compiled struct {
	out    int
	fanins []int
	g      *gate
}

func newEvaluator(nl *netlist) (*evaluator, error) {
	ev := &evaluator{index: make(map[string]int)}
	for _, pi := range nl.inputs {
		if _, dup := ev.index[pi]; dup {
			return nil, fmt.Errorf("input %s listed twice", pi)
		}
		ev.index[pi] = len(ev.index)
		ev.pis = append(ev.pis, ev.index[pi])
	}
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int)
	var visit func(name string) error
	visit = func(name string) error {
		if _, isPI := ev.index[name]; isPI && state[name] == 0 {
			if _, isGate := nl.gates[name]; !isGate {
				return nil
			}
			return fmt.Errorf("%s is both an input and a gate", name)
		}
		switch state[name] {
		case visiting:
			return fmt.Errorf("combinational cycle through %s", name)
		case done:
			return nil
		}
		g, ok := nl.gates[name]
		if !ok {
			return fmt.Errorf("signal %s is never defined", name)
		}
		state[name] = visiting
		c := compiled{g: g}
		for _, f := range g.fanins {
			if err := visit(f); err != nil {
				return err
			}
			c.fanins = append(c.fanins, ev.index[f])
		}
		state[name] = done
		c.out = len(ev.index)
		ev.index[name] = c.out
		ev.order = append(ev.order, c)
		return nil
	}
	for _, po := range nl.outputs {
		if err := visit(po); err != nil {
			return nil, err
		}
	}
	ev.vals = make([]uint64, len(ev.index))
	return ev, nil
}

// run evaluates the netlist for one word per input, in nl.inputs order.
func (ev *evaluator) run(in []uint64) {
	for i, p := range ev.pis {
		ev.vals[p] = in[i]
	}
	for _, c := range ev.order {
		var acc uint64
		for _, row := range c.g.rows {
			term := ^uint64(0)
			for i := 0; i < len(row); i++ {
				switch row[i] {
				case '1':
					term &= ev.vals[c.fanins[i]]
				case '0':
					term &^= ev.vals[c.fanins[i]]
				}
			}
			acc |= term
		}
		ev.vals[c.out] = acc
	}
}

// checkEquivalent reports an error unless got computes the same function as
// want on every primary output: exhaustively for up to exhaustivePIs
// inputs, otherwise on checkWords×64 random vectors drawn from seed.
func checkEquivalent(want, got string, seed int64) error {
	a, err := readBLIF(want)
	if err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	b, err := readBLIF(got)
	if err != nil {
		return fmt.Errorf("reading output: %w", err)
	}
	if !sameNames(a.inputs, b.inputs) || !sameNames(a.outputs, b.outputs) {
		return fmt.Errorf("interfaces differ")
	}
	ea, err := newEvaluator(a)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	eb, err := newEvaluator(b)
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	n := len(a.inputs)
	words := checkWords
	valid := ^uint64(0)
	if n <= exhaustivePIs {
		words = 1
		if n > 6 {
			words = 1 << (n - 6)
		} else {
			valid = 1<<(uint(1)<<n) - 1
		}
	}
	r := rand.New(rand.NewSource(seed))
	inA := make([]uint64, n)
	inB := make([]uint64, n)
	posB := make(map[string]int, n)
	for i, pi := range b.inputs {
		posB[pi] = i
	}
	for w := 0; w < words; w++ {
		for i := range inA {
			switch {
			case n > exhaustivePIs:
				inA[i] = r.Uint64()
			case i < 6:
				inA[i] = lowPattern(i)
			case w>>(i-6)&1 == 1:
				inA[i] = ^uint64(0)
			default:
				inA[i] = 0
			}
			inB[posB[a.inputs[i]]] = inA[i]
		}
		ea.run(inA)
		eb.run(inB)
		for _, po := range a.outputs {
			if d := (ea.vals[ea.index[po]] ^ eb.vals[eb.index[po]]) & valid; d != 0 {
				return fmt.Errorf("output %s differs (vector word %d)", po, w)
			}
		}
	}
	return nil
}

// lowPattern is the word in which bit k holds bit i of k, so six inputs
// enumerate all 64 combinations within one word.
func lowPattern(i int) uint64 {
	var w uint64
	for k := 0; k < 64; k++ {
		if k>>i&1 == 1 {
			w |= 1 << k
		}
	}
	return w
}

func sameNames(x, y []string) bool {
	xs := append([]string(nil), x...)
	ys := append([]string(nil), y...)
	sort.Strings(xs)
	sort.Strings(ys)
	return strings.Join(xs, " ") == strings.Join(ys, " ")
}
