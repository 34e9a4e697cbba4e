package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/network"
)

// This file is the plan/commit substitution engine. Substitution splits
// into three stages:
//
//	planner   — evaluates one (dividend, divisor) trial against a read-only
//	            view of the network (network.Reader) and returns a pure-data
//	            plan. Planners never mutate shared state: every division
//	            edits a private overlay (a deep clone under NoOverlay), and
//	            per-worker scratch arenas hold all reusable buffers. Plans are therefore evaluable
//	            concurrently.
//	reducer   — trialSeq.drive, the one select loop both schedules
//	            share: walks completed plans in the deterministic
//	            candidate order (the order a one-worker run tries them in)
//	            and picks which plan to commit, so the result is
//	            bit-identical at any worker count.
//	committer — applies the chosen plan to the live network serially,
//	            invalidates the pass caches, and updates statistics. A
//	            commit always sticks: nothing in the engine undoes one.
//
// Determinism argument: a plan captures the full replacement (node function
// or overlay delta) and its gain, computed from the pre-commit
// network state. The reducer visits plans in candidate order and commits
// the first positive-gain one (or, under BestGain, the best one once every
// slot has run). That is the serial schedule: a commit ends the node's
// trials exactly as the serial first-positive rule does, and every plan the
// reducer consulted before it was evaluated against the state it would
// have committed against, because nothing committed in between.

// plan is one evaluated division candidate, as pure data: the gain it
// achieves and the replacement that realizes it. Exactly one of the two
// replacement shapes is set: a node-function rewrite (newFanins/newCover,
// for basic, complement-phase, and POS division) or an overlay delta (work,
// for extended and pooled division, which may add a core node and rewrite
// the divisor as well as f).
type plan struct {
	target  string // dividend node the plan rewrites
	divisor string // divisor the plan used (informational)
	gain    int    // factored-literal gain (positive = smaller)
	pos     bool   // plan is a POS-form substitution
	dec     bool   // plan decomposes the divisor
	removed int    // RAR wire removals performed by the division

	// Node-function rewrite (work == nil).
	newFanins []string
	newCover  cube.Cover

	// Overlay delta: commit applies it to the live network (Overlay.ApplyTo)
	// and invalidates every name it adds or replaces in the pass caches.
	work *network.Overlay
}

// isNode reports whether the plan is a node-function rewrite.
func (p *plan) isNode() bool { return p.work == nil }

// planPair evaluates one (dividend, divisor) division in the given form
// against a read-only view of the network, without committing anything.
// ok=false when no division exists. planPair is pure: it is safe to call
// concurrently on the same Reader as long as each call owns its scratch.
//
// planPair pins nw as the scratch's live reader — enabling the memoized
// shared base build every overlay trial of the wave patches — and, under
// Options.Audit, re-runs the whole trial on the historical deep-clone path
// and panics unless the two plans agree byte-for-byte.
//
//bdslint:hotpath
func planPair(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	sc.noOverlay = opt.NoOverlay
	sc.pin = nw
	p, ok := planPairImpl(sc, nw, f, cand, opt)
	if opt.Audit && !opt.NoOverlay {
		//bdslint:ignore hotalloc Audit-only branch: the label and re-trial closure exist only in the testing/debug cross-check mode
		auditOverlayTrial(sc, p, ok, fmt.Sprintf("f=%s d=%s", f, cand.name), func(aopt Options) (plan, bool) {
			return planPairImpl(sc, nw, f, cand, aopt)
		}, opt)
	}
	return p, ok
}

// overlayAuditCorrupt, when set (tests only), mutates the overlay-path plan
// before the audit comparison — the corruption-injection seam proving the
// Audit cross-check actually fires on a divergent trial.
var overlayAuditCorrupt func(*plan)

// auditOverlayTrial re-runs a trial with overlays disabled (the historical
// deep-clone engine) and panics unless the overlay-path plan matches the
// clone-path plan byte-for-byte. O(trial) — Options.Audit is a
// testing/debugging mode.
func auditOverlayTrial(sc *scratch, got plan, gotOK bool, site string, run func(Options) (plan, bool), opt Options) {
	aopt := opt
	aopt.NoOverlay = true
	aopt.Audit = false
	sc.noOverlay = true
	want, wantOK := run(aopt)
	sc.noOverlay = opt.NoOverlay
	if overlayAuditCorrupt != nil {
		overlayAuditCorrupt(&got)
	}
	if err := comparePlans(got, gotOK, want, wantOK); err != nil {
		panic(fmt.Sprintf("core: overlay audit: %s: %v", site, err))
	}
}

// comparePlans reports the first divergence between an overlay-path plan
// (got) and its clone-path re-run (want), or nil when they agree.
func comparePlans(got plan, gotOK bool, want plan, wantOK bool) error {
	if gotOK != wantOK {
		return fmt.Errorf("overlay ok=%v, clone ok=%v", gotOK, wantOK)
	}
	if !gotOK {
		return nil
	}
	if got.gain != want.gain {
		return fmt.Errorf("overlay gain=%d, clone gain=%d", got.gain, want.gain)
	}
	if got.pos != want.pos || got.dec != want.dec || got.removed != want.removed {
		return fmt.Errorf("overlay form (pos=%v dec=%v removed=%d) != clone (pos=%v dec=%v removed=%d)",
			got.pos, got.dec, got.removed, want.pos, want.dec, want.removed)
	}
	if got.isNode() != want.isNode() {
		return fmt.Errorf("overlay isNode=%v, clone isNode=%v", got.isNode(), want.isNode())
	}
	if got.isNode() {
		if err := compareNodeFn(got.newFanins, got.newCover, want.newFanins, want.newCover); err != nil {
			return fmt.Errorf("node rewrite: %v", err)
		}
		return nil
	}
	if err := compareNodes("added", got.work.Added(), want.work.Added()); err != nil {
		return err
	}
	return compareNodes("replaced", got.work.Changed(), want.work.Changed())
}

// compareNodes reports the first divergence between two node lists of a
// plan's delta, or nil when they agree name for name and body for body.
func compareNodes(kind string, got, want []*network.Node) error {
	if len(got) != len(want) {
		return fmt.Errorf("overlay %s %d nodes, clone %d", kind, len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].Name {
			return fmt.Errorf("%s node %d: overlay %q, clone %q", kind, i, got[i].Name, want[i].Name)
		}
		if err := compareNodeFn(got[i].Fanins, got[i].Cover, want[i].Fanins, want[i].Cover); err != nil {
			return fmt.Errorf("%s node %q: %v", kind, got[i].Name, err)
		}
	}
	return nil
}

func compareNodeFn(gotFanins []string, gotCover cube.Cover, wantFanins []string, wantCover cube.Cover) error {
	if len(gotFanins) != len(wantFanins) {
		return fmt.Errorf("fanin count %d != %d", len(gotFanins), len(wantFanins))
	}
	for i := range gotFanins {
		if gotFanins[i] != wantFanins[i] {
			return fmt.Errorf("fanin %d: %q != %q", i, gotFanins[i], wantFanins[i])
		}
	}
	if gotCover.NumVars() != wantCover.NumVars() || gotCover.NumCubes() != wantCover.NumCubes() {
		return fmt.Errorf("cover shape %dv/%dc != %dv/%dc",
			gotCover.NumVars(), gotCover.NumCubes(), wantCover.NumVars(), wantCover.NumCubes())
	}
	for i := range gotCover.Cubes {
		if !gotCover.Cubes[i].Equal(wantCover.Cubes[i]) {
			return fmt.Errorf("cube %d differs", i)
		}
	}
	return nil
}

// planPairImpl is planPair's trial body; sc.noOverlay/sc.pin are set by the
// wrapper.
func planPairImpl(sc *scratch, nw network.Reader, f string, cand candidate, opt Options) (plan, bool) {
	d := cand.name
	fn := nw.Node(f)
	fid, _ := nw.IDOf(f)
	costBefore := sc.factorLits(fid, fn.Cover)
	// Windowed division: bound the sub-network the division sees.
	nwd := nw
	if opt.WindowDepth > 0 {
		nwd = windowFor(sc, nw, f, d, opt.WindowDepth)
	}

	nodePlan := func(res *DivideResult, pos bool) plan {
		return plan{
			target:    f,
			divisor:   d,
			gain:      costBefore - algebraic.FactorLits(res.Cover),
			pos:       pos,
			removed:   res.WiresRemoved,
			newFanins: res.Fanins,
			newCover:  res.Cover,
		}
	}

	if cand.neg {
		res, ok := basicDivideCompl(sc, nwd, f, d, opt.Config, cand.dCompl)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, false), true
	}
	if cand.pos {
		res, ok := posDivide(sc, nwd, f, d, opt.Config, cand.fComplMin, cand.dComplMin)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, true), true
	}

	switch opt.Config {
	case Basic:
		res, ok := basicDivide(sc, nwd, f, d, opt.Config)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, false), true

	default: // Extended / ExtendedGDC
		dn := nw.Node(d)
		did, _ := nw.IDOf(d)
		before := costBefore + sc.factorLits(did, dn.Cover)

		// Extended division generalizes basic division; evaluate both and
		// keep the better (the core-selection heuristic can otherwise pick
		// a decomposition where the whole divisor would gain more).
		extGain := -1 << 30
		var extWork *network.Overlay
		var extRes *DivideResult
		var extDec *Decomposition
		if work, res, dec, ok := extendedDivide(sc, nw, f, d, opt.Config); ok {
			after := algebraic.FactorLits(work.Node(f).Cover) + algebraic.FactorLits(work.Node(d).Cover)
			if dec != nil {
				after += algebraic.FactorLits(work.Node(dec.CoreName).Cover)
			}
			extGain = before - after
			extWork, extRes, extDec = work, res, dec
		}
		basicGain := -1 << 30
		var basicRes *DivideResult
		if res, ok := basicDivide(sc, nwd, f, d, opt.Config); ok {
			basicGain = costBefore - algebraic.FactorLits(res.Cover)
			basicRes = res
		}
		if basicRes == nil && extWork == nil {
			return plan{}, false
		}
		if basicGain >= extGain {
			p := nodePlan(basicRes, false)
			p.gain = basicGain
			return p, true
		}
		return plan{
			target:  f,
			divisor: d,
			gain:    extGain,
			dec:     extDec != nil,
			removed: extRes.WiresRemoved,
			work:    extWork,
		}, true
	}
}

// planPooled evaluates one multi-node pooled extended division for f using
// up to four of the SOP candidates as the divisor pool. Like planPair it is
// pure; ok=false when no pooled division with positive total gain (f plus
// any created/rewritten nodes) exists. Like planPair it pins nw for the
// shared base build and cross-checks the clone path under Options.Audit.
func planPooled(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	sc.noOverlay = opt.NoOverlay
	sc.pin = nw
	p, ok := planPooledImpl(sc, nw, f, cands, opt)
	if opt.Audit && !opt.NoOverlay {
		auditOverlayTrial(sc, p, ok, "pooled f="+f, func(aopt Options) (plan, bool) {
			return planPooledImpl(sc, nw, f, cands, aopt)
		}, opt)
	}
	return p, ok
}

// planPooledImpl is planPooled's trial body. The candidate dedup is a plain
// slice scan: the pool is capped at four entries, so linear containment
// beats hashing.
func planPooledImpl(sc *scratch, nw network.Reader, f string, cands []candidate, opt Options) (plan, bool) {
	var pool []string
	for _, c := range cands {
		if c.pos || c.neg || indexOf(pool, c.name) >= 0 {
			continue
		}
		pool = append(pool, c.name)
		if len(pool) == 4 {
			break
		}
	}
	if len(pool) < 2 {
		return plan{}, false
	}
	before := algebraic.FactorLits(nw.Node(f).Cover)
	for _, d := range pool {
		before += algebraic.FactorLits(nw.Node(d).Cover)
	}
	work, res, dec, ok := pooledExtendedDivide(sc, nw, f, pool, opt.Config)
	if !ok {
		return plan{}, false
	}
	after := algebraic.FactorLits(work.Node(f).Cover)
	for _, d := range pool {
		after += algebraic.FactorLits(work.Node(d).Cover)
	}
	if dec != nil {
		after += algebraic.FactorLits(work.Node(dec.CoreName).Cover)
	}
	if before-after <= 0 {
		return plan{}, false
	}
	return plan{
		target:  f,
		gain:    before - after,
		dec:     dec != nil,
		removed: res.WiresRemoved,
		work:    work,
	}, true
}

// commitPlan is the serial committer: it applies a plan to the live
// network, invalidates the pass caches for every name the plan touches, and
// updates statistics. A plan is evaluated against the state it commits
// against, so applying it cannot fail; if it does, that is an engine bug,
// and commitPlan panics naming the dividend and divisor.
func commitPlan(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) {
	if p.isNode() {
		if err := commitNode(nw, p.target, p.newFanins, p.newCover); err != nil {
			panic(fmt.Sprintf("core: commit f=%s d=%s: %v", p.target, p.divisor, err))
		}
		cc.invalidate(nw, p.target)
		sigs.invalidate(p.target)
	} else {
		// An overlay plan commits by applying its recorded delta: O(delta).
		// The delta is the complete rewrite set — extended division replaces
		// the divisor as well as f — so every name in it is invalidated. A
		// name missed here keeps a complement cover cached over its OLD fanin
		// space, and the next candidate enumeration indexes the new (shorter)
		// fanin list with it.
		p.work.ApplyTo(nw)
		for _, n := range p.work.Added() {
			cc.invalidate(nw, n.Name)
			sigs.invalidate(n.Name)
		}
		for _, n := range p.work.Changed() {
			cc.invalidate(nw, n.Name)
			sigs.invalidate(n.Name)
		}
	}

	st.Substitutions++
	if p.pos {
		st.POSSubstitutions++
	}
	if p.dec {
		st.Decompositions++
	}
	st.WiresRemoved += p.removed
	if opt.Audit {
		// Post-commit structural audit (Options.Audit): every committed
		// substitution must leave the network Check-clean. A violation here
		// is an engine bug, never an input problem, so it panics.
		if err := nw.Check(); err != nil {
			panic("core: post-commit audit: " + err.Error())
		}
	}
}

// trialSlot is one candidate's slot in a trial sequence: the worker's
// result.
type trialSlot struct {
	p  plan
	ok bool
}

// trialSeq is one dividend's trial sequence: its candidates in trial order
// and one slot each. Both schedules drive it through the same loop (drive)
// and run each slot through planPair. The serial driver builds one sequence
// per dividend and runs it in waves; the batch scheduler builds one per
// member in phase A and runs it in phase B.
type trialSeq struct {
	f     string
	cands []candidate
	slots []trialSlot

	// consumed is the number of slots a one-worker run evaluates: the
	// selected slot + 1, or every slot when no slot is selected (or under
	// BestGain). Only slots[:consumed] are tallied.
	consumed int
	// tail and tailPlans count the slots a wave ran beyond the slot it
	// stopped at, and the positive-gain plans among them: wave speculation,
	// reported as SpeculatedTrials and DiscardedPlans.
	tail, tailPlans int
	// cur is the slot in progress on a batch member's worker, for panic
	// attribution; drive parks it at len(cands) for the pooled attempt.
	cur int
}

func newTrialSeq(f string, cands []candidate) trialSeq {
	return trialSeq{f: f, cands: cands, slots: make([]trialSlot, len(cands))}
}

// positive reports whether slot i holds a committable (positive-gain) plan.
func (q *trialSeq) positive(i int) bool {
	s := &q.slots[i]
	return s.ok && s.p.gain > 0
}

// drive is the one select loop every dividend runs through, in both
// schedules. run executes slots [lo, hi) — a wave on the evaluator's pool in
// the serial driver, one slot at a time on the member's worker in a batch.
// drive returns the plan to commit: the first positive-gain slot in slot
// order (the paper's greedy rule), or, under Options.BestGain, once every
// slot has run, the highest-gain slot (ties to the earlier slot). Only when
// no slot has a positive gain is the pooled fallback planned on sc and
// returned. ok=false when there is nothing to commit.
func (q *trialSeq) drive(sc *scratch, nw network.Reader, opt Options, width int, run func(lo, hi int)) (plan, bool) {
	n := len(q.slots)
	q.consumed = n
	if opt.BestGain {
		run(0, n)
		best := -1
		for i := range q.slots {
			if q.positive(i) && (best < 0 || q.slots[i].p.gain > q.slots[best].p.gain) {
				best = i
			}
		}
		if best >= 0 {
			return q.slots[best].p, true
		}
	} else {
		for lo := 0; lo < n; lo += width {
			hi := min(lo+width, n)
			run(lo, hi)
			for i := lo; i < hi; i++ {
				if !q.positive(i) {
					continue
				}
				for j := i + 1; j < hi; j++ {
					q.tail++
					if q.positive(j) {
						q.tailPlans++
					}
				}
				q.consumed = i + 1
				return q.slots[i].p, true // paper: take the first positive-gain division
			}
		}
	}
	if opt.Pool && opt.Config != Basic {
		q.cur = n
		return planPooled(sc, nw, q.f, q.cands, opt)
	}
	return plan{}, false
}

// tally folds the consumed slots into the statistics as divisor trials,
// and the wave tail into the speculation counters.
func (q *trialSeq) tally(st *Stats) {
	st.DivisorTrials += q.consumed
	st.SpeculatedTrials += q.tail
	st.DiscardedPlans += q.tailPlans
}

// evaluator runs trial sequences over a bounded worker pool. Each worker
// owns one scratch arena for its lifetime; results land in slots indexed by
// candidate position, so the reducer sees them in deterministic order
// regardless of completion order.
type evaluator struct {
	workers   int
	scratches []*scratch
	// epoch counts live-network commits. Each scratch tags its memoized
	// shared base build with the epoch it was built in (see
	// scratch.baseBuild), so no base is ever patched after the network it
	// snapshots may have changed.
	epoch uint64
	// idx is the lazily rebuilt per-epoch graph index (fanouts + topo
	// positions) shared read-only with workers; see passIndex.
	idx *passIndex
}

func newEvaluator(workers int) *evaluator {
	if workers < 1 {
		workers = 1
	}
	ev := &evaluator{workers: workers, scratches: make([]*scratch, workers)}
	for i := range ev.scratches {
		ev.scratches[i] = newScratch()
	}
	return ev
}

// wave runs slots [lo, hi) of q as one wave against nw on the pool.
func (ev *evaluator) wave(nw *network.Network, q *trialSeq, lo, hi int, opt Options) {
	ev.pool(nw, hi-lo, func(sc *scratch, k int) {
		s := &q.slots[lo+k]
		s.p, s.ok = planPair(sc, nw, q.f, q.cands[lo+k], opt)
	}, func(k int) (string, string) {
		return q.f, q.cands[lo+k].name
	})
}

// pool is the engine's one worker pool: it runs task(sc, i) for i in
// [0, n) on up to ev.workers goroutines, each owning one scratch, or inline
// on the first scratch when there is one worker or at most one task. Tasks
// are handed out in index order. A panicking task is recovered and its
// worker stops; once every worker has finished, the panic with the lowest
// task index is re-raised on the calling goroutine, attributed to the
// (dividend, divisor) pair where names. Every task below a panicking one
// was already handed out, so that choice does not depend on interleaving.
func (ev *evaluator) pool(nw *network.Network, n int, task func(sc *scratch, i int), where func(i int) (f, d string)) {
	ix := ev.index(nw)
	for _, sc := range ev.scratches {
		sc.epochIdx = ix
	}
	var next atomic.Int64
	var mu sync.Mutex
	failed, failure := -1, any(nil)
	work := func(sc *scratch) {
		i := -1
		defer func() {
			if rec := recover(); rec != nil {
				mu.Lock()
				if failed < 0 || i < failed {
					failed, failure = i, rec
				}
				mu.Unlock()
			}
		}()
		for i = int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			task(sc, i)
		}
	}
	if w := min(ev.workers, n); w <= 1 {
		work(ev.scratches[0])
	} else {
		var wg sync.WaitGroup
		for _, sc := range ev.scratches[:w] {
			wg.Add(1)
			//bdslint:ignore spawn this IS the bounded worker pool the spawn rule points engine code at
			go func(sc *scratch) {
				defer wg.Done()
				work(sc)
			}(sc)
		}
		wg.Wait()
	}
	if failed >= 0 {
		f, d := where(failed)
		panic(fmt.Sprintf("core: worker panic f=%s d=%s: %v", f, d, failure))
	}
}

// commit applies a plan through commitPlan, first bumping the epoch.
func (ev *evaluator) commit(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) {
	ev.bump()
	commitPlan(nw, p, opt, cc, sigs, st)
}

// bump advances the commit epoch and stamps it into every scratch, so each
// one's memoized base build of the live network (and the pass index) is
// invalidated before the network changes. No worker runs while the serial
// side edits the network, so it may write the scratches here.
func (ev *evaluator) bump() {
	ev.epoch++
	for _, sc := range ev.scratches {
		sc.epoch = ev.epoch
	}
}
