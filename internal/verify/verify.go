// Package verify provides combinational equivalence checking between two
// networks with identical PI/PO interfaces, via 64-way parallel simulation:
// exhaustive for up to ExhaustiveLimit inputs, randomized beyond. Every
// optimization test in this repository goes through it.
package verify

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/network"
)

// ExhaustiveLimit is the PI count up to which checking is exhaustive.
const ExhaustiveLimit = 22

// DefaultRandomWords is the number of 64-pattern words simulated when the
// input space is too large to enumerate.
const DefaultRandomWords = 512

// Result describes an equivalence check.
type Result struct {
	Equivalent bool
	Exhaustive bool
	// FailingPO and FailingPattern describe the first mismatch found.
	FailingPO      string
	FailingPattern map[string]bool
	PatternsTried  int
}

// Equivalent is a convenience wrapper returning only the verdict.
func Equivalent(a, b *network.Network) bool {
	r, err := Check(a, b, 0)
	return err == nil && r.Equivalent
}

// Check compares two networks. randWords overrides DefaultRandomWords when
// positive. An error is returned when the interfaces differ.
func Check(a, b *network.Network, randWords int) (Result, error) {
	pis, err := sameSet("PI", a.PIs(), b.PIs())
	if err != nil {
		return Result{}, err
	}
	pos, err := sameSet("PO", a.POs(), b.POs())
	if err != nil {
		return Result{}, err
	}
	if len(pis) <= ExhaustiveLimit {
		return exhaustive(a, b, pis, pos), nil
	}
	if randWords <= 0 {
		randWords = DefaultRandomWords
	}
	// Random simulation first: cheap counterexamples come out immediately.
	r := randomized(a, b, pis, pos, randWords)
	if !r.Equivalent {
		return r, nil
	}
	// SAT miter for a complete verdict on wide circuits.
	if sr, decided := satCheck(a, b, pis, pos); decided {
		sr.PatternsTried = r.PatternsTried
		return sr, nil
	}
	return r, nil
}

func sameSet(kind string, x, y []string) ([]string, error) {
	xs := append([]string(nil), x...)
	ys := append([]string(nil), y...)
	sort.Strings(xs)
	sort.Strings(ys)
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("verify: %s count mismatch: %d vs %d", kind, len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] != ys[i] {
			return nil, fmt.Errorf("verify: %s mismatch: %q vs %q", kind, xs[i], ys[i])
		}
	}
	return xs, nil
}

// sim is one side of a check: the network's compiled simulation program,
// its reusable value buffer, and the SigIDs of the check's PIs and POs.
type sim struct {
	prog *network.SimProgram
	val  []uint64
	pi   []int           // pi[j]: index into the check's PI words of prog.PIs()[j]
	po   []network.SigID // po[i]: SigID of the check's PO i
}

// newSim compiles nw for a check over the named PIs and POs. Every PI of nw
// must be among pis (a missing one panics, as network.Simulate does); extra
// names are ignored. Every PO name must be a signal of nw.
func newSim(nw *network.Network, pis, pos []string) *sim {
	p := nw.Compile()
	s := &sim{prog: p, val: make([]uint64, p.NumSigs())}
	at := make(map[string]int, len(pis))
	for i, pi := range pis {
		at[pi] = i
	}
	for _, name := range nw.PIs() {
		i, ok := at[name]
		if !ok {
			panic("verify: missing PI " + name)
		}
		s.pi = append(s.pi, i)
	}
	s.po = make([]network.SigID, len(pos))
	for i, po := range pos {
		id, ok := nw.IDOf(po)
		if !ok {
			panic("verify: missing PO " + po)
		}
		s.po[i] = id
	}
	return s
}

// run simulates one word: words[i] is the word of the check's PI i.
func (s *sim) run(words []uint64) {
	for j, pi := range s.prog.PIs() {
		s.val[pi] = words[s.pi[j]]
	}
	s.prog.Run(s.val)
}

// out returns the last run's word of the check's PO i.
func (s *sim) out(i int) uint64 { return s.val[s.po[i]] }

func exhaustive(a, b *network.Network, pis, pos []string) Result {
	n := len(pis)
	total := uint64(1) << n
	res := Result{Equivalent: true, Exhaustive: true}
	sa, sb := newSim(a, pis, pos), newSim(b, pis, pos)
	// Pack 64 consecutive minterms per word: PI i of minterm (base+k) is
	// bit i of (base+k). For i < 6 the pattern within a word is periodic;
	// for i >= 6 it is constant per word.
	words := make([]uint64, n)
	for i := 0; i < n && i < 6; i++ {
		for k := 0; k < 64; k++ {
			if k>>i&1 == 1 {
				words[i] |= 1 << k
			}
		}
	}
	for base := uint64(0); base < total; base += 64 {
		for i := 6; i < n; i++ {
			words[i] = -(base >> uint(i) & 1)
		}
		sa.run(words)
		sb.run(words)
		valid := ^uint64(0)
		if total-base < 64 {
			valid = (uint64(1) << (total - base)) - 1
		}
		for i, po := range pos {
			if d := (sa.out(i) ^ sb.out(i)) & valid; d != 0 {
				k := bits.TrailingZeros64(d)
				res.Equivalent = false
				res.FailingPO = po
				res.FailingPattern = pattern(pis, base+uint64(k))
				res.PatternsTried = int(base) + k + 1
				return res
			}
		}
	}
	res.PatternsTried = int(total)
	return res
}

func randomized(a, b *network.Network, pis, pos []string, words int) Result {
	r := rand.New(rand.NewSource(0x5EED))
	res := Result{Equivalent: true}
	sa, sb := newSim(a, pis, pos), newSim(b, pis, pos)
	in := make([]uint64, len(pis))
	for w := 0; w < words; w++ {
		for i := range in {
			in[i] = r.Uint64()
		}
		sa.run(in)
		sb.run(in)
		for i, po := range pos {
			if d := sa.out(i) ^ sb.out(i); d != 0 {
				k := bits.TrailingZeros64(d)
				res.Equivalent = false
				res.FailingPO = po
				res.FailingPattern = map[string]bool{}
				for j, pi := range pis {
					res.FailingPattern[pi] = in[j]>>k&1 == 1
				}
				res.PatternsTried = w*64 + k + 1
				return res
			}
		}
	}
	res.PatternsTried = words * 64
	return res
}

// firstFailingPO simulates one pattern on both sides and returns the index
// of the first PO on which they disagree, or -1.
func firstFailingPO(sa, sb *sim, pis []string, p map[string]bool) int {
	words := make([]uint64, len(pis))
	for i, pi := range pis {
		if p[pi] {
			words[i] = 1
		}
	}
	sa.run(words)
	sb.run(words)
	for i := range sa.po {
		if (sa.out(i)^sb.out(i))&1 != 0 {
			return i
		}
	}
	return -1
}

// ShrinkCounterexample greedily simplifies a failing pattern: each PI in
// turn is flipped to false, and the flip is kept when the networks still
// disagree at some PO. The result is a (locally) minimal witness that is
// easier to read when debugging an inequivalence.
func ShrinkCounterexample(a, b *network.Network, pattern map[string]bool) map[string]bool {
	cur := make(map[string]bool, len(pattern))
	for k, v := range pattern {
		cur[k] = v
	}
	pis := append([]string(nil), a.PIs()...)
	sort.Strings(pis)
	sa, sb := newSim(a, pis, a.POs()), newSim(b, pis, a.POs())
	disagree := func() bool { return firstFailingPO(sa, sb, pis, cur) >= 0 }
	if !disagree() {
		return cur // not actually a counterexample; return unchanged
	}
	for _, pi := range pis {
		if !cur[pi] {
			continue
		}
		cur[pi] = false
		if !disagree() {
			cur[pi] = true
		}
	}
	return cur
}

func pattern(pis []string, m uint64) map[string]bool {
	out := make(map[string]bool, len(pis))
	for i, pi := range pis {
		out[pi] = m>>uint(i)&1 == 1
	}
	return out
}
