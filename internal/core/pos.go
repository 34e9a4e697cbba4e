package core

import (
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// DefaultMaxComplementCubes bounds the complement covers manipulated by
// POS-form and complement-phase division; larger complements are skipped
// (the SOP path remains).
const DefaultMaxComplementCubes = 24

// PosDivide performs the paper's product-of-sum-form division of node f by
// node d. Viewing both functions as products of sum terms, Lemma 2 (the POS
// dual of Lemma 1) justifies the restructuring f = (d + q)·r, which by De
// Morgan is equivalent to running the SOS machinery on the complement
// covers: f̄ = q̄·d̄ + r̄, realized with a NEGATIVE divisor literal. The
// implication-based removal then reduces q̄, and the final node function is
// the complement of the reduced cover.
//
// POS division always uses region-local implications (the scratch
// complement structure must not be observed downstream), so cfg degrades
// ExtendedGDC to Extended internally.
func PosDivide(nw network.Reader, f, d string, cfg Config) (*DivideResult, bool) {
	return posDivide(newScratch(), nw, f, d, cfg, nil, nil)
}

// posDivide is PosDivide with an explicit scratch arena. preF/preD, when
// non-nil, are the minimized complements of f and d carried from candidate
// enumeration (byte-identical to recomputing them — see candidate).
func posDivide(sc *scratch, nw network.Reader, f, d string, cfg Config, preF, preD *cube.Cover) (*DivideResult, bool) {
	fn, dn := nw.Node(f), nw.Node(d)
	if fn == nil || dn == nil || f == d {
		return nil, false
	}
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil, false
	}
	if nw.DependsOn(d, f) {
		return nil, false
	}
	// Minimal complements give clean sum terms to match against. The raw
	// complements' zero/size checks were done by complCache when the covers
	// come in precomputed.
	var fc, dc cube.Cover
	if preF != nil && preD != nil {
		fc, dc = *preF, *preD
	} else {
		fc = fn.Cover.Complement()
		if fc.IsZero() || fc.NumCubes() > DefaultMaxComplementCubes {
			return nil, false
		}
		dc = dn.Cover.Complement()
		if dc.IsZero() || dc.NumCubes() > DefaultMaxComplementCubes {
			return nil, false
		}
		fc = mini.Minimize(fc, mini.Options{})
		dc = mini.Minimize(dc, mini.Options{})
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fc, fn.Fanins, union)
	dU := network.RemapCover(dc, dn.Fanins, union)
	qPart, rem := SplitSOS(fU, dU)
	if qPart.IsZero() {
		return nil, false
	}
	if cfg == ExtendedGDC {
		cfg = Extended
	}
	res, ok := divideWithParts(sc, nw, f, d, union, qPart, rem, cfg, cube.Neg, true)
	if !ok {
		return nil, false
	}
	// res.Cover computes f̄; the node function is its complement.
	final := res.Cover.Complement()
	if final.NumCubes() > 4*DefaultMaxComplementCubes {
		return nil, false
	}
	final = mini.Minimize(final, mini.Options{})
	out := &DivideResult{
		Fanins:       res.Fanins,
		Cover:        final,
		Quotient:     res.Quotient,
		Remainder:    res.Remainder,
		WiresRemoved: res.WiresRemoved,
		POS:          true,
	}
	return out, true
}

// complEntry is one node's slot in the complement cache: the complement
// cover, its minimized form (POS candidates), its literal signatures
// (candidate enumeration), and the bad mark (complement too big, zero, or
// node gone). The has* flags distinguish "never computed" from a cached
// zero value.
type complEntry struct {
	has    bool
	hasMin bool
	hasSig bool
	bad    bool
	cov    cube.Cover
	min    cube.Cover
	sigs   [][]sigLit
}

// complCache memoizes per-node complement covers during a substitution
// pass, indexed by the live network's dense SigID (the symbol table is
// append-only, so a node's ID — unlike its map hash — is stable across
// commits and rebinds to the same slot if the name is ever re-added). It
// lives on the serial side of the engine (candidate enumeration and
// commit); planners never touch it, so it needs no locking. The hit/miss
// counters feed Stats.
type complCache struct {
	e            []complEntry
	hits, misses int
}

func newComplCache() *complCache {
	return &complCache{}
}

// slot grows the entry arena to cover id and returns its entry.
func (cc *complCache) slot(id network.SigID) *complEntry {
	for int(id) >= len(cc.e) {
		cc.e = append(cc.e, complEntry{})
	}
	return &cc.e[id]
}

// getSigs returns the literal signatures of name's complement cover against
// the node's fanins, memoized with the complement itself (and invalidated
// with it — the fanin list is part of the node state the commit touched).
//
//bdslint:hotpath
func (cc *complCache) getSigs(nw network.Reader, name string, fanins []string) ([][]sigLit, cube.Cover, bool) {
	c, ok := cc.get(nw, name)
	if !ok {
		return nil, cube.Cover{}, false
	}
	id, _ := nw.IDOf(name) // interned: get just cached its complement
	e := cc.slot(id)
	if e.hasSig {
		return e.sigs, c, true
	}
	e.sigs = coverSigs(c, fanins)
	e.hasSig = true
	return e.sigs, c, true
}

//bdslint:hotpath
func (cc *complCache) get(nw network.Reader, name string) (cube.Cover, bool) {
	id, interned := nw.IDOf(name)
	if interned && int(id) < len(cc.e) {
		if e := &cc.e[id]; e.bad {
			cc.hits++
			return cube.Cover{}, false
		} else if e.has {
			cc.hits++
			return e.cov, true
		}
	}
	cc.misses++
	n := nw.Node(name)
	if n == nil {
		if interned {
			cc.slot(id).bad = true
		}
		return cube.Cover{}, false
	}
	c := n.Cover.Complement()
	e := cc.slot(id)
	if c.NumCubes() > DefaultMaxComplementCubes || c.IsZero() {
		e.bad = true
		return cube.Cover{}, false
	}
	e.cov = c
	e.has = true
	return c, true
}

// getMin returns the node's minimized complement — the cover posDivide's
// Minimize(Complement(...)) produces — memoized alongside the plain
// complement. The returned cover is shared: callers must not mutate it.
func (cc *complCache) getMin(nw network.Reader, name string) (cube.Cover, bool) {
	if id, ok := nw.IDOf(name); ok && int(id) < len(cc.e) && cc.e[id].hasMin {
		return cc.e[id].min, true
	}
	raw, ok := cc.get(nw, name)
	if !ok {
		return cube.Cover{}, false
	}
	id, _ := nw.IDOf(name) // interned: get succeeded on a live node
	e := cc.slot(id)
	e.min = mini.Minimize(raw.Clone(), mini.Options{})
	e.hasMin = true
	return e.min, true
}

func (cc *complCache) invalidate(nw network.Reader, name string) {
	if id, ok := nw.IDOf(name); ok && int(id) < len(cc.e) {
		cc.e[id] = complEntry{}
	}
}
