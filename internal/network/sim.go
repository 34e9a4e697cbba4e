package network

import "repro/internal/cube"

// SimProgram is a network compiled for repeated 64-pattern simulation:
// the topological node order, every node's cubes flattened into runs of
// (fanin SigID, phase) literals, and the PI and PO SigIDs. Compiling once
// and calling Run per word replaces re-deriving the order, re-decoding the
// cubes and re-hashing names on every word. A program is a snapshot: it
// does not follow later edits of the network it was compiled from.
type SimProgram struct {
	nsig    int
	pis     []SigID
	pos     []SigID
	order   []SigID  // live nodes, fanins first
	nodeEnd []int32  // nodeEnd[k]: end of order[k]'s cubes in cubeEnd
	cubeEnd []int32  // cubeEnd[c]: end of cube c's literals in lits
	lits    []uint32 // fanin SigID<<1 | 1 when the literal is complemented
}

// Compile builds the simulation program of nw's current structure. Panics
// on a combinational cycle, like TopoOrderIDs.
func (nw *Network) Compile() *SimProgram {
	order := nw.TopoOrderIDs()
	p := &SimProgram{
		nsig:    nw.sym.Len(),
		pis:     append([]SigID(nil), nw.pis...),
		pos:     append([]SigID(nil), nw.posIDs...),
		order:   order,
		nodeEnd: make([]int32, len(order)),
	}
	for k, id := range order {
		fids := nw.faninIDs[id]
		for _, c := range nw.defs[id].Cover.Cubes {
			for v, n := 0, c.NumVars(); v < n; v++ {
				switch c.Get(v) {
				case cube.Pos:
					p.lits = append(p.lits, uint32(fids[v])<<1)
				case cube.Neg:
					p.lits = append(p.lits, uint32(fids[v])<<1|1)
				}
			}
			p.cubeEnd = append(p.cubeEnd, int32(len(p.lits)))
		}
		p.nodeEnd[k] = int32(len(p.cubeEnd))
	}
	return p
}

// NumSigs is the minimum length of the value buffer Run takes.
func (p *SimProgram) NumSigs() int { return p.nsig }

// PIs returns the primary-input SigIDs in the network's PI order.
func (p *SimProgram) PIs() []SigID { return p.pis }

// POs returns the primary-output SigIDs in the network's PO order.
func (p *SimProgram) POs() []SigID { return p.pos }

// Run evaluates one 64-pattern word. val is a caller-owned SigID-indexed
// buffer of at least NumSigs entries: the caller writes the PI words, Run
// overwrites every node's word in topological order. Entries of undriven
// signals are read but never written, so in a zeroed buffer they read as
// constant 0 — the semantics Simulate has always had — and one buffer can
// be reused across words.
//
//bdslint:hotpath
func (p *SimProgram) Run(val []uint64) {
	val = val[:p.nsig]
	c, l := 0, 0
	for k, id := range p.order {
		var out uint64
		for end := int(p.nodeEnd[k]); c < end; c++ {
			w := ^uint64(0)
			for lend := int(p.cubeEnd[c]); l < lend; l++ {
				lit := p.lits[l]
				w &= val[lit>>1] ^ -uint64(lit&1)
			}
			out |= w
		}
		val[id] = out
	}
}

// Simulate evaluates the network on 64 parallel input patterns: piWords maps
// each PI name to a 64-bit word (bit k = value of that PI in pattern k).
// It returns a word per signal (PIs included). Every PI must be present in
// piWords; a missing entry panics (like the package's other invariant
// violations) rather than silently simulating the PI as constant 0.
// It is the name-keyed wrapper over Compile and Run; callers that simulate
// more than one word should compile once and run the program directly.
func (nw *Network) Simulate(piWords map[string]uint64) map[string]uint64 {
	p := nw.Compile()
	val := make([]uint64, p.nsig)
	for i, pi := range p.pis {
		w, ok := piWords[nw.piNames[i]]
		if !ok {
			panic("network: Simulate missing PI " + nw.piNames[i])
		}
		val[pi] = w
	}
	p.Run(val)
	out := make(map[string]uint64, len(p.order)+len(p.pis))
	for i, pi := range p.pis {
		out[nw.piNames[i]] = val[pi]
	}
	for _, id := range p.order {
		out[nw.sym.Name(id)] = val[id]
	}
	return out
}

// GlobalCover collapses signal name into a cover over the primary inputs,
// whose variable i corresponds to piOrder[i]. Exponential in the worst case;
// intended for small cones (verification, don't-care analysis).
func (nw *Network) GlobalCover(name string, piOrder []string) cube.Cover {
	// SigID-indexed PI positions and memo table: every signal the collapse
	// can reach is interned (it is a PI or a driven node), so dense slices
	// replace the name-keyed maps this walk used to allocate.
	idx := make([]int, nw.sym.Len())
	for i := range idx {
		idx[i] = -1
	}
	for i, pi := range piOrder {
		if id, ok := nw.sym.Lookup(pi); ok {
			idx[id] = i
		}
	}
	memo := make([]cube.Cover, nw.sym.Len())
	known := make([]bool, nw.sym.Len())
	var global func(string) cube.Cover
	global = func(s string) cube.Cover {
		id, ok := nw.sym.Lookup(s)
		if !ok {
			panic("network: unknown signal " + s)
		}
		if known[id] {
			return memo[id]
		}
		n := len(piOrder)
		if i := idx[id]; i >= 0 {
			c := cube.New(n)
			c.Set(i, cube.Pos)
			g := cube.CoverOf(n, c)
			memo[id], known[id] = g, true
			return g
		}
		nd := nw.Node(s)
		if nd == nil {
			panic("network: unknown signal " + s)
		}
		// Substitute each fanin's global cover into the local SOP.
		out := cube.NewCover(n)
		for _, c := range nd.Cover.Cubes {
			term := cube.CoverOf(n, cube.New(n))
			for _, v := range c.Lits() {
				g := global(nd.Fanins[v])
				if c.Get(v) == cube.Neg {
					g = g.Complement()
				}
				term = term.And(g)
				if term.IsZero() {
					break
				}
			}
			out = out.Or(term)
		}
		out = out.SCC()
		memo[id], known[id] = out, true
		return out
	}
	return global(name)
}
