package core

import (
	"strings"

	"repro/internal/network"
)

// Cone-disjoint batched scheduling.
//
// The wave engine (engine.go) parallelizes the trials of ONE dividend and
// throws the wave away as soon as a plan commits, so at w8 most speculation
// dies — the committed baseline showed SubstituteParallel *regressing* from
// w1 to w8. The batch scheduler inverts the decomposition: it speculates
// across DIVIDENDS. A batch is the maximal prefix (in the pass's
// outputs-first order) of dividends whose claimed cone footprints are
// pairwise disjoint; each member's whole trial sequence runs on one worker
// against the frozen pre-batch network, and a serial sweep then replays the
// members in pass order, committing each surviving plan — so every
// in-flight trial is work the sweep can commit, not a wave that dies with
// the first winner.
//
// Determinism argument (byte-identity with the serial driver, at any worker
// count, batch on or off). The sweep visits members in exactly the order
// the serial driver visits nodes. Inductively, assume the network state
// before member j's sweep slot equals the serial state S_{j-1}. Member j's
// speculation was computed against the batch-start state S_0; the sweep
// accepts it only if the eviction rules below prove every input of member
// j's serial computation is identical in S_0 and S_{j-1}:
//
//	E1a  dirtyCone[f]: f itself or f's fanin-cone content changed — covers
//	     the dividend's node data, its trial windows, and its filter
//	     signature inputs (a cone change puts f in TFO(target)).
//	E1b  dirtySupp ∩ guard, guard = {f} ∪ supp(f) ∪ TFO(f): any commit
//	     whose touched nodes gained or lost a fanin in the guard. This
//	     catches candidate-set drift — every enumeration candidate shares a
//	     fanin NAME with f (see candidateDivisors), so a node entering or
//	     leaving the candidate universe was touched while holding a fanin
//	     in supp(f) — and TFO-membership drift, because a path from f is
//	     created or broken only by a commit whose target holds a fanin in
//	     TFO(f) ∪ {f} (its path predecessor).
//	E2   dirtyCone[d] for a listed candidate d: d's cone content changed,
//	     so d's trial outcomes (a function of cone(f), cone(d), opts — the
//	     trial-cache contract, trialcache.go) may differ.
//	E3   dirtyCone[s] for s ∈ side, side = ∪ supp(X), X ∈ TFO(f): the
//	     signature prefilter's observability terms (ObsCare/nodeOutDomTerm)
//	     read sampled signatures of TFO side fanins; a cone change under
//	     such a fanin drifts which trials the filter skips. Structural
//	     changes IN the TFO region are already E1b (a touched TFO node
//	     holds its path predecessor, a guard signal, as fanin).
//	E4   bdcDirty and the plan creates nodes: a commit added or deleted a
//	     "bdc"-prefixed name (or swapped the whole network), so the fresh
//	     core name the speculated plan embeds may no longer be the name
//	     FreshName would pick at this slot.
//	E5   a whole-network-clone plan with any prior sweep commit: the clone
//	     embeds S_0 wholesale; committing it by CopyFrom would revert the
//	     earlier commits. (Overlay plans commit by delta and are exempt.)
//
// A member that passes every rule behaves, by the rules' coverage of its
// inputs, exactly as the serial driver would at S_{j-1}; a member that
// fails any rule is evicted and literally re-run through the serial
// per-node sequence (substituteNode) — so the induction closes either way.
// Commits performed by eviction re-runs route through run.commit and fold
// into the same dirty marks, keeping later members' checks sound.
//
// Conflict-claim soundness note: the claims (pairwise-disjoint TFI∪TFO
// footprints) make conflicts *unlikely*, maximizing surviving speculation;
// the eviction rules alone carry correctness. That is deliberate — rules
// E1b/E3/E4 see through interactions (shared fanin names, observability
// side inputs, the global fresh-name counter) that cone disjointness does
// not capture.

// batchWindow caps how many claiming (candidate-bearing) members one batch
// may hold: enough to keep every worker fed several times over, small
// enough that early-member commits rarely invalidate the tail. On large
// circuits the cap scales up (windowFor, see batchWindowFor): each batch
// pays one O(V+E) table/index refresh, so the window must grow with V for
// the refresh to amortize — 32-member batches on a 100k-gate circuit
// would spend more time refreshing than trialing.
const batchWindow = 32

// batchWindowMax bounds the adaptive window: beyond this, early-member
// commits invalidating the tail (eviction re-runs) start to outweigh the
// amortization, and phase A's serial scan grows long enough to starve the
// workers.
const batchWindowMax = 512

// batchWindowFor sizes the claiming window for a pass over n candidate
// dividends. Purely a function of n — never of worker count — so the batch
// partition, and with it the committed network, stays byte-identical
// across Workers settings.
func batchWindowFor(n int) int {
	w := n / 64
	if w < batchWindow {
		return batchWindow
	}
	if w > batchWindowMax {
		return batchWindowMax
	}
	return w
}

// batchConeCap caps a member's extracted footprint. A dividend whose
// TFI+TFO cone exceeds it (e.g. the carry spine of a ripple adder, whose
// fanout cone is half the circuit) is unbatchable: claiming it would serialize
// the batch anyway, and extracting megabyte cones per node would be O(V²).
const batchConeCap = 4096

// batchMember is one dividend of a batch, with everything its worker needs
// precomputed on the serial side (phase A) and everything the sweep needs
// to validate or evict it (phase C).
type batchMember struct {
	pos     int           // position in the pass's id order (diagnostic)
	id      network.SigID // dividend signal
	trivial bool          // node was nil/zero-cover at scan time: nothing to do
	solo    bool          // over-cap footprint: run via the serial fallback

	// The member's trial sequence (dividend name and candidates at
	// batch-build time), prepared in phase A against the frozen pre-batch
	// network exactly as a wave prepares against the live one; sf also
	// decides rule E3's applicability.
	trialSeq
	candIDs []network.SigID // SigID of each candidate (rule E2)

	fp    []network.SigID // claim footprint: node-driven {f} ∪ TFI ∪ TFO
	tfo   []network.SigID // node-driven TFO(f) (shared tail of fp)
	guard []network.SigID // {f} ∪ raw fanin IDs of f ∪ TFO(f) (rule E1b)
	side  []network.SigID // non-PI fanins of TFO nodes (rule E3)

	// Phase-B results.
	plan    plan
	hasPlan bool
	spec    int // speculative trial verdicts produced (incl. cache replays)
}

// batchObserver, when set (tests only), receives every multi-member batch
// after phase A — the seam the cone-disjointness property test hooks.
var batchObserver func(members []*batchMember)

// batchScheduler drives the three batch phases for one Substitute run.
type batchScheduler struct {
	r       *run
	members []*batchMember

	arena network.ConeArena // footprint extraction (serial side)

	// claim is the batch-construction stamp set: a signal stamped with
	// claimCur is part of an earlier member's footprint.
	claim    []uint32
	claimCur uint32

	// dirtyCone/dirtySupp are the sweep's conflict marks (one generation
	// per sweep): dirtyCone holds touched targets plus their transitive
	// fanout, dirtySupp holds the old and new fanins of touched nodes.
	dirtyCone []uint32
	dirtySupp []uint32
	dirtyCur  uint32

	fanouts [][]network.SigID // batch-start fanout snapshot (passIndex's)
	stack   []network.SigID   // markConeTFO DFS scratch

	sweeping  bool // run.commit routes commits through the marks while set
	bdcDirty  bool // a commit touched the "bdc" fresh-name namespace
	allDirty  bool // a whole-network CopyFrom happened: evict everything
	committed int  // commits so far in this sweep (rule E5)
}

func newBatchScheduler(r *run) *batchScheduler {
	return &batchScheduler{r: r}
}

// runBatch builds and executes one batch starting at ids[i] and scanning
// downward, returning how many positions it consumed (≥1) and whether any
// commit happened.
func (s *batchScheduler) runBatch(ids []network.SigID, i int) (int, bool) {
	r := s.r
	nw := r.nw

	// Phase A (serial): rebuild the pass index for the current epoch, then
	// refresh the signature/cone tables once for the whole batch — commits
	// mark them dirty, so this is the per-batch replacement for the serial
	// driver's per-node Refresh. The index is built first so both tables
	// reuse its fanout/topo snapshots (RefreshScoped) instead of
	// recomputing the O(V+E) adjacency a second and third time; the
	// deferred NetHash refold is safe here because batching never runs
	// under ExtendedGDC, the only config whose trial keys read it. Then
	// scan members until a claim conflict, an over-cap footprint, the
	// window cap, or the end of the pass.
	ix := r.ev.index(nw)
	if r.sigTab != nil {
		r.sigTab.RefreshScoped(ix.fanouts, ix.topoIDs)
	}
	if r.coneTab != nil {
		r.st.CacheInvalidated += r.coneTab.RefreshScoped(ix.fanouts, ix.topoIDs)
	}
	s.fanouts = ix.fanouts
	s.members = s.members[:0]
	s.claimReset()
	claiming := 0
	solo := false
	took := 0
scan:
	for pos := i; pos >= 0; pos-- {
		id := ids[pos]
		fn := nw.NodeByID(id)
		if fn == nil || fn.Cover.IsZero() {
			s.members = append(s.members, &batchMember{pos: pos, id: id, trivial: true})
			took++
			continue
		}
		m, ok := s.buildMember(pos, id, fn.Name)
		if !ok {
			// Unbatchable footprint: take it as a serial solo when nothing
			// has claimed yet, otherwise end the batch before it.
			if claiming == 0 {
				s.members = append(s.members, &batchMember{pos: pos, id: id, solo: true})
				took++
				solo = true
			}
			break scan
		}
		if len(m.cands) > 0 {
			if !s.claimAll(m.fp) {
				break scan // cone conflict: batch ends before m
			}
			claiming++
		}
		s.members = append(s.members, m)
		took++
		if claiming >= batchWindowFor(len(ids)) {
			break scan
		}
	}

	// Fewer than two claiming members: batching buys nothing — run the
	// prefix through the plain serial sequence.
	if claiming <= 1 || solo {
		changed := false
		for _, m := range s.members {
			if r.substituteNode(m.id) {
				changed = true
			}
		}
		return took, changed
	}

	if batchObserver != nil {
		batchObserver(s.members)
	}

	// Phase B (parallel): each member's whole trial sequence on one worker.
	work := make([]*batchMember, 0, claiming)
	for _, m := range s.members {
		if !m.trivial && len(m.cands) > 0 {
			work = append(work, m)
		}
	}
	r.ev.pool(nw, len(work), func(sc *scratch, k int) {
		s.runMember(work[k], sc)
	}, func(k int) (string, string) {
		m := work[k]
		if m.cur < len(m.cands) {
			return m.f, m.cands[m.cur].name
		}
		return m.f, "pool"
	})

	// Phase C (serial): sweep the members in pass order.
	return took, s.sweep()
}

// buildMember extracts member m's cones and precomputes its candidate list,
// filter verdicts, and cache keys. ok=false flags an over-cap footprint.
func (s *batchScheduler) buildMember(pos int, id network.SigID, f string) (*batchMember, bool) {
	r := s.r
	nw := r.nw
	opt := r.opt
	m := &batchMember{pos: pos, id: id, trialSeq: trialSeq{f: f}}

	s.arena.Reset()
	var ok bool
	m.fp, ok = nw.AppendFaninConeIDs(id, &s.arena, m.fp[:0], batchConeCap)
	if !ok {
		return nil, false
	}
	m.tfo, ok = nw.AppendFanoutConeIDs(id, s.fanouts, &s.arena, m.tfo[:0], batchConeCap)
	if !ok {
		return nil, false
	}
	m.fp = append(m.fp, m.tfo...)
	m.guard = append(append(m.guard[:0], id), nw.FaninIDsOf(id)...)
	m.guard = append(m.guard, m.tfo...)

	cands := r.candidates(f)
	if len(cands) == 0 {
		return m, true
	}
	sf := newSimSigFilter(nw, f, r.cc, opt)
	if sf != nil {
		for _, x := range m.tfo {
			for _, fi := range nw.FaninIDsOf(x) {
				if !nw.IsPIID(fi) {
					m.side = append(m.side, fi)
				}
			}
		}
	}
	m.candIDs = make([]network.SigID, len(cands))
	for ci, c := range cands {
		m.candIDs[ci], _ = nw.IDOf(c.name)
	}
	m.trialSeq = newTrialSeq(f, cands, sf)
	m.prepare(nw, opt, r.tc, 0, len(cands))
	return m, true
}

// runMember runs member m's trial sequence through the shared driver
// against the frozen batch-start network on one worker, one slot at a time.
// Its accept only records the plan: the sweep commits it.
func (s *batchScheduler) runMember(m *batchMember, sc *scratch) {
	r := s.r
	m.hasPlan = m.drive(sc, r.nw, r.opt, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.cur = i
			m.runSlot(sc, r.nw, i, r.opt, r.tc)
		}
	}, func(p plan) bool {
		m.plan = p
		return true
	})
	for i := range m.slots[:m.consumed] {
		if !m.slots[i].filtered {
			m.spec++
		}
	}
	if m.cur == len(m.cands) {
		m.spec++ // the pooled attempt is speculation too
	}
}

// sweep replays the batch's members in pass order against the live network:
// validated members commit their speculated plan (or nothing); evicted
// members re-run the serial per-node sequence.
func (s *batchScheduler) sweep() bool {
	r := s.r
	nw := r.nw
	changed := false
	s.sweeping = true
	s.dirtyReset()
	s.bdcDirty, s.allDirty = false, false
	s.committed = 0
	for _, m := range s.members {
		if m.trivial {
			// Exact re-check at the member's slot: an earlier commit can
			// re-create a scan-time-dead signal (an overlay AddNode reusing
			// its interned ID), in which case the serial driver would have
			// processed it here.
			if fn := nw.NodeByID(m.id); fn == nil || fn.Cover.IsZero() {
				continue
			}
			r.st.ConflictEvictions++
			if r.substituteNode(m.id) {
				changed = true
			}
			continue
		}
		r.st.SpeculatedTrials += m.spec
		// Publish the buffered cache stores before this member's slot runs:
		// entries are keyed by batch-start cones, so they either still match
		// (and replay the byte-identical outcome the store captured) or can
		// never match again — and an eviction re-run below gets to replay
		// them instead of re-trialing.
		m.publish(r.tc)
		if s.evict(m) {
			r.st.ConflictEvictions++
			if m.hasPlan {
				r.st.DiscardedPlans++
			}
			if r.substituteNode(m.id) {
				changed = true
			}
			continue
		}
		if !m.hasPlan {
			m.tally(r.st, r.tc != nil)
			continue
		}
		if r.commit(m.plan) {
			changed = true
			r.st.BatchCommits++
			s.committed++
			m.tally(r.st, r.tc != nil)
			continue
		}
		r.st.DiscardedPlans++
		if m.plan.pooled {
			// A pooled plan follows the full candidate scan, so the scan
			// stands and a failed pooled commit ends the node.
			m.tally(r.st, r.tc != nil)
		} else if r.substituteNode(m.id) {
			// The serial driver keeps scanning candidates after a failed
			// commit; the serial re-run tallies its own trials.
			changed = true
		}
	}
	s.sweeping = false
	return changed
}

// evict applies rules E1–E5 (see the file comment) to member m at its
// sweep slot.
func (s *batchScheduler) evict(m *batchMember) bool {
	if s.allDirty {
		return true
	}
	if s.coneDirty(m.id) { // E1a
		return true
	}
	for _, g := range m.guard { // E1b
		if s.suppDirty(g) {
			return true
		}
	}
	for _, d := range m.candIDs { // E2
		if s.coneDirty(d) {
			return true
		}
	}
	if m.sf != nil { // E3
		for _, x := range m.side {
			if s.coneDirty(x) {
				return true
			}
		}
	}
	if m.hasPlan && !m.plan.isNode() {
		if s.bdcDirty && planCreatesNames(&m.plan) { // E4
			return true
		}
		if _, clone := m.plan.work.(*network.Network); clone && s.committed > 0 { // E5
			return true
		}
	}
	return false
}

// planCreatesNames reports whether committing p interns fresh node names
// (rule E4's precondition). Clone plans are conservatively assumed to.
func planCreatesNames(p *plan) bool {
	if p.isNode() {
		return false
	}
	if ov, ok := p.work.(*network.Overlay); ok {
		return len(ov.Added()) > 0
	}
	return true
}

// commitMarks carries one commit's conflict-mark state across the
// pre/post-commit boundary: touched node IDs resolved before the mutation
// (their old fanins are only readable then) and added names resolved after
// (they are only interned then).
type commitMarks struct {
	touched []network.SigID
	added   []string
	clone   bool
}

// precommit records the commit's touched set and old-fanin support marks
// against the pre-mutation network. Called by run.commit while sweeping.
func (s *batchScheduler) precommit(p *plan) commitMarks {
	var cm commitMarks
	nw := s.r.nw
	if p.isNode() {
		if id, ok := nw.IDOf(p.target); ok {
			cm.touched = append(cm.touched, id)
			s.markSupp(nw.FaninIDsOf(id))
		}
		return cm
	}
	ov, ok := p.work.(*network.Overlay)
	if !ok {
		cm.clone = true // CopyFrom commit: poison everything in postcommit
		return cm
	}
	// The overlay's recorded delta is the complete touched set — p.touched
	// is only the {f, d} summary and may omit nodes the trial rewrote.
	for _, n := range ov.Added() {
		cm.added = append(cm.added, n.Name)
		if strings.HasPrefix(n.Name, "bdc") {
			s.bdcDirty = true
		}
	}
	for _, n := range ov.Changed() {
		if id, idOK := nw.IDOf(n.Name); idOK {
			cm.touched = append(cm.touched, id)
			s.markSupp(nw.FaninIDsOf(id))
		}
	}
	for _, name := range ov.Deleted() {
		if strings.HasPrefix(name, "bdc") {
			s.bdcDirty = true
		}
		if id, idOK := nw.IDOf(name); idOK {
			cm.touched = append(cm.touched, id)
			s.markSupp(nw.FaninIDsOf(id))
		}
	}
	return cm
}

// postcommit completes the marks after a successful commit: added names
// resolve to IDs now, surviving touched nodes contribute their new fanins,
// and every touched signal's transitive fanout goes cone-dirty. The TFO
// walk runs on the batch-start fanout snapshot; that is complete because
// the only edges a commit changes point INTO its touched nodes — any
// post-state fanout path not in the snapshot passes through a node touched
// by this commit (marked here) or by an earlier one (marked then).
func (s *batchScheduler) postcommit(cm commitMarks) {
	if cm.clone {
		s.allDirty = true
		s.bdcDirty = true
		return
	}
	nw := s.r.nw
	for _, name := range cm.added {
		if id, ok := nw.IDOf(name); ok {
			cm.touched = append(cm.touched, id)
		}
	}
	for _, id := range cm.touched {
		if nw.NodeByID(id) != nil {
			s.markSupp(nw.FaninIDsOf(id))
		}
		s.markConeTFO(id)
	}
}

// claimReset starts a fresh claim generation for a new batch.
func (s *batchScheduler) claimReset() {
	s.claimCur++
	if s.claimCur == 0 {
		for i := range s.claim {
			s.claim[i] = 0
		}
		s.claimCur = 1
	}
}

// claimAll atomically claims the footprint: it reports false (claiming
// nothing) if any signal is already claimed by an earlier member.
func (s *batchScheduler) claimAll(fp []network.SigID) bool {
	for _, id := range fp {
		if int(id) < len(s.claim) && s.claim[id] == s.claimCur {
			return false
		}
	}
	for _, id := range fp {
		for int(id) >= len(s.claim) {
			s.claim = append(s.claim, 0)
		}
		s.claim[id] = s.claimCur
	}
	return true
}

// dirtyReset starts a fresh dirty-mark generation for a new sweep.
func (s *batchScheduler) dirtyReset() {
	s.dirtyCur++
	if s.dirtyCur == 0 {
		for i := range s.dirtyCone {
			s.dirtyCone[i] = 0
		}
		for i := range s.dirtySupp {
			s.dirtySupp[i] = 0
		}
		s.dirtyCur = 1
	}
}

func (s *batchScheduler) coneDirty(id network.SigID) bool {
	return int(id) < len(s.dirtyCone) && s.dirtyCone[id] == s.dirtyCur
}

func (s *batchScheduler) suppDirty(id network.SigID) bool {
	return int(id) < len(s.dirtySupp) && s.dirtySupp[id] == s.dirtyCur
}

func (s *batchScheduler) markSupp(ids []network.SigID) {
	for _, id := range ids {
		for int(id) >= len(s.dirtySupp) {
			s.dirtySupp = append(s.dirtySupp, 0)
		}
		s.dirtySupp[id] = s.dirtyCur
	}
}

// markConeTFO marks id and its transitive fanout (per the batch-start
// snapshot) cone-dirty.
func (s *batchScheduler) markConeTFO(id network.SigID) {
	s.stack = append(s.stack[:0], id)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for int(x) >= len(s.dirtyCone) {
			s.dirtyCone = append(s.dirtyCone, 0)
		}
		if s.dirtyCone[x] == s.dirtyCur {
			continue
		}
		s.dirtyCone[x] = s.dirtyCur
		if int(x) < len(s.fanouts) {
			s.stack = append(s.stack, s.fanouts[x]...)
		}
	}
}
