package network

import (
	"encoding/binary"
	"sort"
)

// Structural hashing (strash): a unique table mapping each node's
// canonicalized (cover, fanin-representative-ID) shape to the first node
// that exhibited it, so structurally equivalent cones resolve to one
// representative SigID. The canonical key encodes the full node structure
// byte for byte — two nodes merge only when their canonical forms are
// EXACTLY equal, so there are no false merges (soundness); canonicalization
// sorts fanin columns by (representative, column pattern) and then sorts
// cubes, which resolves ordinary permutations but may miss merges under
// fully symmetric ties (completeness is best-effort, as in AIG strash
// packages where XOR/MUX shapes escape the two-input AND table).

// StrashTable is the result of one Network.Strash pass: a representative
// SigID per signal. PIs and undriven signals represent themselves; a node
// structurally identical (after canonicalization) to an earlier node maps
// to that node's representative.
type StrashTable struct {
	rep []SigID
	// Merged counts nodes that resolved to an earlier representative.
	Merged int
}

// Rep returns the representative of signal id (id itself when unique).
func (t *StrashTable) Rep(id SigID) SigID { return t.rep[id] }

// Strash builds the unique table bottom-up in topological order: each
// node's canonical key is computed over its fanins' representatives, so
// equivalence propagates through whole cones (two trees of structurally
// equal nodes collapse level by level).
func (nw *Network) Strash() *StrashTable {
	t := &StrashTable{rep: make([]SigID, nw.sym.Len())}
	for i := range t.rep {
		t.rep[i] = SigID(i)
	}
	// Digest-keyed, not name-keyed: the key is a canonical structural hash
	// (fanin reps + cube rows), so SigID indexing cannot express it.
	//bdslint:ignore idmap digest-keyed unique table — keys are canonical structural hashes, not signal names; no SigID encoding exists for them
	unique := make(map[string]SigID)
	var buf []byte
	for _, id := range nw.TopoOrderIDs() {
		buf = nw.canonKey(buf[:0], id, t.rep)
		k := string(buf)
		if r, ok := unique[k]; ok {
			t.rep[id] = r
			t.Merged++
		} else {
			unique[k] = id
		}
	}
	return t
}

// canonKey appends node id's canonical structural key to buf: fanin count,
// sorted fanin representatives, and the cube rows under the column
// permutation, themselves sorted. Byte-exact equality of keys implies
// byte-exact equality of the canonicalized structures.
func (nw *Network) canonKey(buf []byte, id SigID, rep []SigID) []byte {
	n := nw.defs[id]
	fids := nw.faninIDs[id]
	k := len(fids)
	nc := n.Cover.NumCubes()

	// Column patterns in original order: one byte per cube, the phase of
	// this column in that cube.
	colBits := make([][]byte, k)
	for v := 0; v < k; v++ {
		bits := make([]byte, nc)
		for ci, c := range n.Cover.Cubes {
			bits[ci] = byte(c.Get(v))
		}
		colBits[v] = bits
	}
	perm := make([]int, k)
	for v := range perm {
		perm[v] = v
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := rep[fids[perm[a]]], rep[fids[perm[b]]]
		if ra != rb {
			return ra < rb
		}
		return string(colBits[perm[a]]) < string(colBits[perm[b]])
	})

	buf = binary.AppendUvarint(buf, uint64(k))
	for _, v := range perm {
		buf = binary.AppendUvarint(buf, uint64(rep[fids[v]]))
	}
	rows := make([]string, nc)
	row := make([]byte, k)
	for ci, c := range n.Cover.Cubes {
		for i, v := range perm {
			row[i] = byte(c.Get(v))
		}
		rows[ci] = string(row)
	}
	sort.Strings(rows)
	buf = binary.AppendUvarint(buf, uint64(nc))
	for _, r := range rows {
		buf = append(buf, r...)
	}
	return buf
}
