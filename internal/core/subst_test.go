package core

import (
	"math/rand"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// gainNetwork: substitution of g = ab into f = abc + abd + e has a positive
// factored-literal gain (5 → 4).
func gainNetwork() *network.Network {
	nw := network.New("gain")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, cube.ParseCover(5, "abc + abd + e"))
	nw.AddPO("f")
	nw.AddPO("g")
	return nw
}

func TestSubstituteBasicCommits(t *testing.T) {
	nw := gainNetwork()
	ref := nw.Clone()
	before := nw.FactoredLits()
	st := Substitute(nw, Options{Config: Basic})
	if st.Substitutions < 1 {
		t.Fatalf("no substitutions: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("substitution broke equivalence")
	}
	if nw.FactoredLits() >= before {
		t.Errorf("lits %d → %d, want a reduction", before, nw.FactoredLits())
	}
	if nw.Node("f").FaninIndex("g") < 0 {
		t.Error("f does not use g")
	}
}

func TestSubstituteRejectsZeroGain(t *testing.T) {
	// f = a + bc with d = a + b: division exists (quotient a + c) but the
	// factored-literal count does not drop (3 → 3), so nothing commits.
	nw := network.New("zero")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c"}, cube.ParseCover(3, "a + bc"))
	nw.AddPO("f")
	nw.AddPO("d")
	st := Substitute(nw, Options{Config: Basic})
	if st.Substitutions != 0 {
		t.Errorf("zero-gain substitution committed: %+v, f = %v", st, nw.Node("f").Cover)
	}
}

func TestSubstitutePOSCandidateOfferedAndCommitSound(t *testing.T) {
	// On f = (a+b)(c+d) with divisor d0 = a+b, both the SOP and the POS
	// forms of the division apply and reach the same y(c+d) result; the
	// driver must offer the POS candidate and commit a sound substitution
	// (the SOP form wins the race, which is fine — the forms converge).
	nw := posNetwork()
	cc := newComplCache()
	sigs := newSigCache(nw)
	cands := candidateDivisors(nw, sigs, cc, "f", Options{Config: Basic, POS: true}, nil)
	foundPOS := false
	for _, c := range cands {
		if c.name == "d0" && c.pos {
			foundPOS = true
		}
	}
	if !foundPOS {
		t.Error("POS candidate not offered")
	}

	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Basic, POS: true})
	if st.Substitutions < 1 {
		t.Fatalf("no substitution: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	if nw.Node("f").FaninIndex("d0") < 0 {
		t.Error("f does not use d0")
	}
}

func TestSubstitutePOSOnlyPath(t *testing.T) {
	// Force the POS path by planning the pos=true candidate directly on the
	// product-form network; the commit must be sound and use the divisor.
	nw := posNetwork()
	ref := nw.Clone()
	cc := newComplCache()
	sigs := newSigCache(nw)
	var st Stats
	opt := Options{Config: Basic, POS: true}
	p, ok := planPair(newScratch(), nw, "f", candidate{name: "d0", pos: true}, opt)
	if !ok || p.gain <= 0 {
		t.Fatal("POS plan not found")
	}
	commitPlan(nw, p, opt, cc, sigs, &st)
	if st.POSSubstitutions != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	if nw.Node("f").FaninIndex("d0") < 0 {
		t.Error("f does not use d0")
	}
}

func TestSubstituteExtendedConfig(t *testing.T) {
	// f = a + bc + bd with h = a + b + e: only extended division (core
	// a + b) applies; it is accepted only if the total literal count drops,
	// so enlarge f to make the core worthwhile.
	nw := network.New("extgain")
	for _, pi := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		nw.AddPI(pi)
	}
	nw.AddNode("h", []string{"a", "b", "e"}, cube.ParseCover(3, "a + b + c"))
	nw.AddNode("f0", []string{"a", "b", "c", "d", "f", "g"},
		cube.ParseCover(6, "a + bc + bd + be + bf"))
	nw.AddPO("f0")
	nw.AddPO("h")
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Extended})
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	// before: f0 = a + b(c+d+e+f) → 6; h → 3. After with core y=a+b:
	// f0 = y(a+c+d+e+f)?? RAR actually gives y(...)·… — accept whatever the
	// driver decided, but the totals must not grow.
	t.Logf("stats: %+v, lits %d → %d", st, st.LitsBefore, st.LitsAfter)
	if st.LitsAfter > st.LitsBefore {
		t.Errorf("literals grew: %d → %d", st.LitsBefore, st.LitsAfter)
	}
}

func TestSubstituteStatsConsistent(t *testing.T) {
	nw := gainNetwork()
	st := Substitute(nw, Options{Config: Basic})
	if st.LitsBefore != 7 { // g: 2, f: ab(c+d)+e = 5
		t.Errorf("LitsBefore = %d, want 7", st.LitsBefore)
	}
	if st.LitsAfter != nw.FactoredLits() {
		t.Errorf("LitsAfter = %d, actual %d", st.LitsAfter, nw.FactoredLits())
	}
}

func TestPropSubstituteSoundAllConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	rows := []struct {
		name string
		opt  Options
		// def, when set, is the option set opt must behave exactly like:
		// a non-positive cap selects its default.
		def *Options
	}{
		{name: "basic", opt: Options{Config: Basic, POS: true, MaxPasses: 1}},
		{name: "ext", opt: Options{Config: Extended, POS: true, MaxPasses: 1}},
		{name: "extgdc", opt: Options{Config: ExtendedGDC, POS: true, MaxPasses: 1}},
		{name: "trials<0", opt: Options{Config: Basic, POS: true, MaxPasses: 1, MaxDivisorTrials: -1},
			def: &Options{Config: Basic, POS: true, MaxPasses: 1}},
		{name: "passes<0", opt: Options{Config: Basic, POS: true, MaxPasses: -1},
			def: &Options{Config: Basic, POS: true}},
	}
	for trial := 0; trial < 12; trial++ {
		base := randomDAG(r, 4, 6)
		for _, row := range rows {
			nw := base.Clone()
			st := Substitute(nw, row.opt)
			if !verify.Equivalent(base, nw) {
				t.Fatalf("trial %d %s: substitution broke equivalence (stats %+v)\nbefore: %safter: %s",
					trial, row.name, st, base.String(), nw.String())
			}
			if st.LitsAfter > st.LitsBefore {
				t.Errorf("trial %d %s: literals grew %d → %d", trial, row.name, st.LitsBefore, st.LitsAfter)
			}
			if st.Passes < 1 {
				t.Errorf("trial %d %s: ran %d passes", trial, row.name, st.Passes)
			}
			if row.def != nil {
				want := base.Clone()
				Substitute(want, *row.def)
				if nw.String() != want.String() {
					t.Errorf("trial %d %s: result differs from the default options'", trial, row.name)
				}
			}
		}
	}
}

func TestSubstituteBestGainSoundAndNotWorse(t *testing.T) {
	r := rand.New(rand.NewSource(121))
	for trial := 0; trial < 8; trial++ {
		base := randomDAG(r, 4, 6)
		greedy := base.Clone()
		stG := Substitute(greedy, Options{Config: Extended, MaxPasses: 1})
		best := base.Clone()
		stB := Substitute(best, Options{Config: Extended, MaxPasses: 1, BestGain: true})
		if !verify.Equivalent(base, greedy) || !verify.Equivalent(base, best) {
			t.Fatalf("trial %d: equivalence broken", trial)
		}
		// Best-gain should not lose to greedy on a single pass per node...
		// (global interactions can still differ; only check soundness and
		// log the comparison).
		t.Logf("trial %d: greedy %d→%d, best %d→%d", trial,
			stG.LitsBefore, stG.LitsAfter, stB.LitsBefore, stB.LitsAfter)
	}
}

func TestWindowedDivisionSoundAndEffective(t *testing.T) {
	// With a depth-2 window the Fig. 2 substitution must still be found.
	nw := gainNetwork()
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Basic, WindowDepth: 2})
	if st.Substitutions < 1 {
		t.Fatalf("windowed substitution missed: %+v", st)
	}
	if !verify.Equivalent(ref, nw) {
		t.Fatal("windowed substitution broke equivalence")
	}
}

func TestPropWindowedSound(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	for trial := 0; trial < 10; trial++ {
		base := randomDAG(r, 4, 7)
		for _, depth := range []int{1, 2, 3} {
			nw := base.Clone()
			st := Substitute(nw, Options{Config: Extended, POS: true, WindowDepth: depth, MaxPasses: 1})
			if !verify.Equivalent(base, nw) {
				t.Fatalf("trial %d depth %d: equivalence broken (%+v)", trial, depth, st)
			}
		}
	}
}

func TestWindowForShape(t *testing.T) {
	// Chain a → n1 → n2 → n3 → f with divisor d over a: a depth-1 window
	// around f keeps only f (and d), with n3 as a window input.
	nw := network.New("w")
	nw.AddPI("a")
	nw.AddPI("b")
	nw.AddNode("n1", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("n2", []string{"n1", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("n3", []string{"n2", "a"}, cube.ParseCover(2, "ab'"))
	nw.AddNode("d", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"n3", "a", "b"}, cube.ParseCover(3, "ab + c"))
	nw.AddPO("f")
	nw.AddPO("d")
	w := windowFor(newScratch(), nw, "f", "d", 1)
	if w.Node("f") == nil || w.Node("d") == nil {
		t.Fatal("window must contain f and d")
	}
	if w.Node("n3") != nil || w.Node("n2") != nil {
		t.Error("depth-1 window should cut before n3")
	}
	if !w.IsPI("n3") {
		t.Error("n3 should be a window input")
	}
	if err := w.Check(); err != nil {
		t.Fatalf("window invalid: %v", err)
	}
}
