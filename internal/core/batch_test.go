package core

import (
	"math/rand"
	"testing"

	"repro/internal/blif"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// coneForestDAG builds G independent copies of the classic factoring gain
// over private PIs: d = py + pz and f = px·py + px·pz, so every group holds
// the committable substitution f = px·d — and all group cones are pairwise
// disjoint, so the batch scheduler provably packs multi-member batches and
// commits several plans per sweep.
func coneForestDAG(g int) *network.Network {
	nw := network.New("forest")
	for i := 0; i < g; i++ {
		p := string(rune('a'+i%26)) + string(rune('0'+i/26))
		px, py, pz := p+"x", p+"y", p+"z"
		nw.AddPI(px)
		nw.AddPI(py)
		nw.AddPI(pz)
		c1 := cube.New(2)
		c1.Set(0, cube.Pos)
		c2 := cube.New(2)
		c2.Set(1, cube.Pos)
		dcov := cube.NewCover(2)
		dcov.Add(c1)
		dcov.Add(c2)
		nw.AddNode(p+"_d", []string{py, pz}, dcov)
		nw.AddPO(p + "_d")
		f1 := cube.New(3)
		f1.Set(0, cube.Pos)
		f1.Set(1, cube.Pos)
		f2 := cube.New(3)
		f2.Set(0, cube.Pos)
		f2.Set(2, cube.Pos)
		fcov := cube.NewCover(3)
		fcov.Add(f1)
		fcov.Add(f2)
		nw.AddNode(p+"_f", []string{px, py, pz}, fcov)
		nw.AddPO(p + "_f")
	}
	return nw
}

// observeBatches installs a batchObserver that fails the test if any two
// claiming members of one batch have intersecting claim footprints, and
// counts multi-member batches. Returns the counter; the caller must defer
// the returned teardown.
func observeBatches(t *testing.T) (*int, func()) {
	t.Helper()
	batches := new(int)
	batchObserver = func(members []*batchMember) {
		claiming := 0
		owner := make(map[network.SigID]int)
		for mi, m := range members {
			if m.trivial || m.solo || len(m.cands) == 0 {
				continue
			}
			claiming++
			for _, id := range m.fp {
				if prev, dup := owner[id]; dup {
					t.Errorf("batch members %d and %d share footprint signal %d — cones not disjoint",
						prev, mi, id)
				}
				owner[id] = mi
			}
		}
		if claiming >= 2 {
			*batches++
		}
	}
	return batches, func() { batchObserver = nil }
}

// TestBatchConesDisjoint is the scheduler's claim-soundness property test:
// over networks engineered to have many disjoint cones AND over random
// DAGs, any two candidates scheduled in one batch have disjoint TFI∪TFO
// footprints. The cone forest guarantees the test actually observes
// multi-member batches (a vacuous pass is rejected).
func TestBatchConesDisjoint(t *testing.T) {
	batches, done := observeBatches(t)
	defer done()

	Substitute(coneForestDAG(12), Options{Config: Extended, POS: true, Workers: 4})
	if *batches == 0 {
		t.Fatal("cone forest produced no multi-member batch — the property test never fired")
	}

	r := rand.New(rand.NewSource(5151))
	for trial := 0; trial < 6; trial++ {
		Substitute(randomDAG(r, 6, 14), Options{Config: Extended, POS: true, Pool: true, Workers: 4})
	}
}

// TestBatchPOReconvergentPairConflicts pins the conflict model on the
// canonical reconvergence: x = a·b and y = b·c both feed z = x + y, so
// z sits in BOTH fanout cones — the pair MUST conflict (footprint overlap)
// and must never claim places in the same batch, even though their fanin
// cones are disjoint apart from the shared PI.
func TestBatchPOReconvergentPairConflicts(t *testing.T) {
	mk := func() *network.Network {
		nw := network.New("reconv")
		for _, pi := range []string{"a", "b", "c"} {
			nw.AddPI(pi)
		}
		and := cube.New(2)
		and.Set(0, cube.Pos)
		and.Set(1, cube.Pos)
		covAnd := cube.NewCover(2)
		covAnd.Add(and)
		nw.AddNode("x", []string{"a", "b"}, covAnd.Clone())
		nw.AddNode("y", []string{"b", "c"}, covAnd.Clone())
		c1 := cube.New(2)
		c1.Set(0, cube.Pos)
		c2 := cube.New(2)
		c2.Set(1, cube.Pos)
		covOr := cube.NewCover(2)
		covOr.Add(c1)
		covOr.Add(c2)
		nw.AddNode("z", []string{"x", "y"}, covOr)
		nw.AddPO("z")
		return nw
	}

	// Direct conflict check on the scheduler's own cone extraction.
	nw := mk()
	xid, _ := nw.IDOf("x")
	yid, _ := nw.IDOf("y")
	fanouts := nw.FanoutIDs()
	var arena network.ConeArena
	arena.Reset()
	fpx, _ := nw.AppendFaninConeIDs(xid, &arena, nil, 0)
	fpx, _ = nw.AppendFanoutConeIDs(xid, fanouts, &arena, fpx, 0)
	arena.Reset()
	fpy, _ := nw.AppendFaninConeIDs(yid, &arena, nil, 0)
	fpy, _ = nw.AppendFanoutConeIDs(yid, fanouts, &arena, fpy, 0)
	overlap := false
	for _, i := range fpx {
		for _, j := range fpy {
			if i == j {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatal("PO-reconvergent pair extracted disjoint footprints — conflict model broken")
	}

	// And through the live scheduler: x and y must never co-claim.
	batchObserver = func(members []*batchMember) {
		hasX, hasY := false, false
		for _, m := range members {
			if m.trivial || m.solo || len(m.cands) == 0 {
				continue
			}
			hasX = hasX || m.f == "x"
			hasY = hasY || m.f == "y"
		}
		if hasX && hasY {
			t.Error("reconvergent pair x,y scheduled in one batch")
		}
	}
	defer func() { batchObserver = nil }()
	Substitute(mk(), Options{Config: Extended, POS: true, Workers: 4})
}

// FuzzBatchDisjoint fuzzes the scheduler's two contracts at once on random
// DAGs: same-batch cone disjointness (via the observer) and byte-identity
// of the committed BLIF against a batch-off run. The seeded corpus includes
// the generator seed whose DAG contains a PO-reconvergent pair (verified in
// TestBatchPOReconvergentPairConflicts structurally; here the whole run
// must still commit identically).
func FuzzBatchDisjoint(f *testing.F) {
	f.Add(int64(5151), uint8(5), uint8(12))
	f.Add(int64(97531), uint8(4), uint8(8))
	f.Add(int64(43), uint8(6), uint8(14))
	f.Fuzz(func(t *testing.T, seed int64, nPI, nNode uint8) {
		pi := 2 + int(nPI)%7
		nodes := 2 + int(nNode)%16
		base := randomDAG(rand.New(rand.NewSource(seed)), pi, nodes)

		batches, done := observeBatches(t)
		defer done()
		_ = batches

		opt := Options{Config: Extended, POS: true, Pool: true, Workers: 4}
		on := base.Clone()
		Substitute(on, opt)
		optOff := opt
		optOff.NoBatch = true
		off := base.Clone()
		Substitute(off, optOff)
		if a, b := blif.ToString(on), blif.ToString(off); a != b {
			t.Fatalf("batch scheduler changed the committed network (seed %d pi %d nodes %d)\nbatch:\n%s\nserial:\n%s",
				seed, pi, nodes, a, b)
		}
		if !verify.Equivalent(base, on) {
			t.Fatalf("batched run broke equivalence (seed %d)", seed)
		}
	})
}

// TestCandidateEnumerationEquivalence locks the support-local enumeration
// fast path to the historical full-scan enumeration: same candidates, same
// forms, same order, on random DAGs across configs.
func TestCandidateEnumerationEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		nw := randomDAG(r, 5, 12)
		ev := newEvaluator(1)
		ix := ev.index(nw)
		for _, cfg := range []Config{Basic, Extended} {
			opt := Options{Config: cfg, POS: true}
			sigs := newSigCache(nw)
			cc := newComplCache()
			for _, f := range nw.SortedNodeNames() {
				fast := candidateDivisors(nw, sigs, cc, f, opt, ix)
				slow := candidateDivisors(nw, sigs, cc, f, opt, nil)
				if len(fast) != len(slow) {
					t.Fatalf("trial %d cfg %v f=%s: fast path found %d candidates, full scan %d",
						trial, cfg, f, len(fast), len(slow))
				}
				for i := range fast {
					if fast[i].name != slow[i].name || fast[i].neg != slow[i].neg || fast[i].pos != slow[i].pos {
						t.Fatalf("trial %d cfg %v f=%s slot %d: fast (%s neg=%v pos=%v) != slow (%s neg=%v pos=%v)",
							trial, cfg, f, i,
							fast[i].name, fast[i].neg, fast[i].pos,
							slow[i].name, slow[i].neg, slow[i].pos)
					}
				}
			}
		}
	}
}

// TestBatchSchedulerCommits proves the batch path actually commits through
// sweeps (BatchCommits > 0 on a commit-rich input) and that the new
// counters satisfy their arithmetic: every discarded plan and batch commit
// is backed by speculation.
func TestBatchSchedulerCommits(t *testing.T) {
	st := Substitute(coneForestDAG(12), Options{Config: Extended, POS: true, Workers: 4})
	if st.BatchCommits == 0 {
		t.Errorf("no batch commits on the cone forest: %+v", st)
	}
	if st.SpeculatedTrials == 0 {
		t.Errorf("no speculation recorded: %+v", st)
	}
	if st.Substitutions < st.BatchCommits {
		t.Errorf("BatchCommits %d exceeds Substitutions %d", st.BatchCommits, st.Substitutions)
	}
}

// TestEvictCoreNameRuleCoversPooledCores: rule E4 evicts a member whose
// speculated plan adds a core node once an earlier commit of the same sweep
// added a name in a core namespace — pooled division's "bdp" as well as
// extended division's "bdc" — because the fresh name the plan embeds may no
// longer be the one FreshName picks at the member's slot.
func TestEvictCoreNameRuleCoversPooledCores(t *testing.T) {
	nw := pooledNetwork()
	s := newBatchScheduler(&run{nw: nw})
	s.fanouts = nw.FanoutIDs()
	s.dirtyReset()
	addCore := func() *network.Overlay {
		ov := network.NewOverlay(nw)
		ov.AddNode(ov.FreshName("bdp"), []string{"a", "b"}, cube.ParseCover(2, "a + b"))
		return ov
	}
	fid, _ := nw.IDOf("f")
	m := &batchMember{id: fid, hasPlan: true, plan: plan{target: "f", work: addCore()}}
	if s.evict(m) {
		t.Fatal("member evicted before any commit")
	}
	core := addCore()
	first := plan{target: "g1", work: core}
	pre := s.precommit(&first)
	core.ApplyTo(nw)
	s.postcommit(pre)
	if !s.evict(m) {
		t.Error("member whose plan adds a bdp core survived an earlier bdp commit")
	}
}

// TestEvictGuardCoversFanoutCone: rule E1b evicts a member when a commit of
// the same sweep rewrites a node deep in f's fanout cone, because a trial
// reads observability through f's fanouts. Here t2 reads f only through
// t1, and neither t2's old nor its new fanins touch {f} ∪ supp(f): only
// the TFO(f) part of the guard can see the rewrite.
func TestEvictGuardCoversFanoutCone(t *testing.T) {
	nw := network.New("tfo")
	for _, pi := range []string{"a", "b", "c"} {
		nw.AddPI(pi)
	}
	nw.AddNode("f", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("t1", []string{"f", "c"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("t2", []string{"t1", "c"}, cube.ParseCover(2, "ab"))
	nw.AddPO("t2")
	r := &run{nw: nw, maxTrials: 32, ev: newEvaluator(1), st: &Stats{}, cc: newComplCache(), sigs: newSigCache(nw)}
	s := newBatchScheduler(r)
	r.sched = s
	s.fanouts = r.ev.index(nw).fanouts
	fid, _ := nw.IDOf("f")
	m, ok := s.buildMember(0, fid, "f")
	if !ok {
		t.Fatal("f's footprint is over the cap")
	}
	s.sweeping = true
	s.dirtyReset()
	if s.evict(m) {
		t.Fatal("member evicted before any commit")
	}
	r.commit(plan{target: "t2", newFanins: []string{"t1", "c"}, newCover: cube.ParseCover(2, "a + b")})
	if !s.evict(m) {
		t.Error("member survived a rewrite of t2, which lies in f's fanout cone")
	}
}
