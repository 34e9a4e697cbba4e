package core

import (
	"fmt"
	"sort"
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
//	            runs on a private clone, and per-worker scratch arenas hold
//	            all reusable buffers. Plans are therefore evaluable
//	            concurrently.
//	reducer   — trialSeq.drive, the one select-and-commit loop both
//	            schedules share: walks completed plans in the deterministic
//	            candidate order (the order a one-worker run tries them in)
//	            and picks which plan to commit, so the result is
//	            bit-identical at any worker count.
//	committer — applies the chosen plan to the live network serially,
//	            invalidates the pass caches, enforces the depth budget, and
//	            updates statistics.
//
// Determinism argument: a plan captures the full replacement (node function
// or whole rewritten network) and its gain, computed from the pre-commit
// network state. The reducer visits plans in candidate order; committing
// plan k and then consulting plan k+1 is equivalent to the serial schedule
// because (a) a successful commit ends the node's trials exactly as the
// serial first-positive rule does, and (b) a depth-rejected commit is
// undone byte-exactly (the node's previous fanins/cover, or a whole-network
// snapshot, are restored verbatim), so the state plan k+1 was evaluated
// against is the state it commits against. (The greedy rule still re-runs
// the rest of such a wave, as a one-worker run does, which keeps the trial
// counters worker-invariant.)

// plan is one evaluated division candidate, as pure data: the gain it
// achieves and the replacement that realizes it. Exactly one of the two
// replacement shapes is set: a node-function rewrite (newFanins/newCover,
// for basic, complement-phase, and POS division) or a whole-network rewrite
// (work/touched, for extended division's divisor decomposition and for
// pooled division).
type plan struct {
	target  string // dividend node the plan rewrites
	divisor string // divisor the plan used (informational)
	gain    int    // factored-literal gain (positive = smaller)
	pos     bool   // plan is a POS-form substitution
	dec     bool   // plan decomposes the divisor
	removed int    // RAR wire removals performed by the division
	pooled  bool   // plan is a pooled division: exempt from Options.DepthBudget

	// Node-function rewrite (work == nil).
	newFanins []string
	newCover  cube.Cover

	// Whole-network rewrite: commit applies work to the live network —
	// extracting the delta when work is an overlay, copying wholesale when it
	// is a deep clone — and invalidates the touched node names in the pass
	// caches. core names the node extended division added when it decomposed
	// the divisor ("" when none); the overlay audit compares it with f and d.
	work    trialNet
	touched []string
	core    string
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
	for _, name := range []string{got.target, got.divisor, got.core} {
		if name == "" {
			continue
		}
		gn, wn := got.work.Node(name), want.work.Node(name)
		if (gn == nil) != (wn == nil) {
			return fmt.Errorf("work node %q present=%v, clone present=%v", name, gn != nil, wn != nil)
		}
		if gn == nil {
			continue
		}
		if err := compareNodeFn(gn.Fanins, gn.Cover, wn.Fanins, wn.Cover); err != nil {
			return fmt.Errorf("work node %q: %v", name, err)
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
		res, ok := basicDivideCompl(sc, nwd, f, d, opt.Config, opt.MaxComplementCubes, cand.dCompl)
		if !ok {
			return plan{}, false
		}
		return nodePlan(res, false), true
	}
	if cand.pos {
		res, ok := posDivide(sc, nwd, f, d, opt.Config, opt.MaxComplementCubes, cand.fComplMin, cand.dComplMin)
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
		var extWork trialNet
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
		core := ""
		if extDec != nil {
			core = extDec.CoreName
		}
		return plan{
			target:  f,
			divisor: d,
			gain:    extGain,
			dec:     extDec != nil,
			removed: extRes.WiresRemoved,
			work:    extWork,
			touched: []string{f, d},
			core:    core,
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

// planPooledImpl is planPooled's trial body. The candidate dedup and the
// touched-name set are plain slice scans: the pool is capped at four
// entries, so linear containment beats hashing and the bookkeeping
// allocates nothing beyond the name lists the plan carries anyway.
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
	fn := nw.Node(f)
	before := algebraic.FactorLits(fn.Cover)
	names := make([]string, 0, len(pool)+2)
	names = append(names, f)
	for _, d := range pool {
		before += algebraic.FactorLits(nw.Node(d).Cover)
		names = append(names, d)
	}
	work, res, dec, ok := pooledExtendedDivide(sc, nw, f, pool, opt.Config)
	if !ok {
		return plan{}, false
	}
	after := 0
	if dec != nil && work.Node(dec.CoreName) != nil {
		after += algebraic.FactorLits(work.Node(dec.CoreName).Cover)
	}
	for _, name := range names {
		if n := work.Node(name); n != nil {
			after += algebraic.FactorLits(n.Cover)
		}
	}
	if dec != nil {
		names = append(names, dec.CoreName)
	}
	if before-after <= 0 {
		return plan{}, false
	}
	sort.Strings(names)
	return plan{
		target:  f,
		gain:    before - after,
		dec:     dec != nil,
		removed: res.WiresRemoved,
		pooled:  true,
		work:    work,
		touched: names,
	}, true
}

// commitPlan is the serial committer: it applies a plan to the live
// network, invalidates the pass caches for every name the plan touches,
// enforces the depth budget when set (undoing the commit byte-exactly on
// violation), and updates statistics. Returns whether the plan stuck.
// Pooled plans historically bypass the depth budget: they only run when
// nothing else committed.
func commitPlan(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) bool {
	budget := opt.DepthBudget
	if p.pooled {
		budget = 0
	}
	invalidate := func() {
		if p.isNode() {
			cc.invalidate(nw, p.target)
			sigs.invalidate(p.target)
			return
		}
		if ov, ok := p.work.(*network.Overlay); ok {
			// The overlay's recorded delta is the complete rewrite set —
			// p.touched is only the {f, d} summary and extended division can
			// rewrite nodes beyond the pair. A name missed here keeps a
			// complement cover cached over its OLD fanin space, and the next
			// candidate enumeration indexes the new (shorter) fanin list
			// with it.
			for _, n := range ov.Added() {
				cc.invalidate(nw, n.Name)
				sigs.invalidate(n.Name)
			}
			for _, n := range ov.Changed() {
				cc.invalidate(nw, n.Name)
				sigs.invalidate(n.Name)
			}
			for _, name := range ov.Deleted() {
				cc.invalidate(nw, name)
				sigs.invalidate(name)
			}
			return
		}
		// Clone commit (CopyFrom): the rewrite set is not enumerable from
		// the plan — the pooled path's Sweep can delete dead nodes p.touched
		// never lists — so drop everything.
		cc.reset()
		sigs.reset()
	}

	if p.isNode() {
		// Snapshot for undo only when a depth budget can reject the commit.
		var oldFanins []string
		var oldCover cube.Cover
		if budget > 0 {
			old := nw.Node(p.target)
			oldFanins = append([]string(nil), old.Fanins...)
			oldCover = old.Cover.Clone()
		}
		if !commitNode(nw, p.target, p.newFanins, p.newCover) {
			return false
		}
		invalidate()
		if budget > 0 {
			if _, depth := nw.Levels(); depth > budget {
				_ = nw.ReplaceNodeFunction(p.target, oldFanins, oldCover)
				invalidate()
				st.DepthRejected++
				return false
			}
		}
	} else {
		var snapshot *network.Network
		if budget > 0 {
			snapshot = nw.Clone()
		}
		// An overlay plan commits by applying its recorded delta to the live
		// network — byte-identical to copying a materialized clone, but
		// O(delta). A clone plan (NoOverlay, or pooled division's cross-node
		// path, which needs Sweep) still commits by wholesale copy.
		if ov, ok := p.work.(*network.Overlay); ok {
			if err := ov.ApplyTo(nw); err != nil {
				panic("core: overlay commit: " + err.Error())
			}
		} else {
			nw.CopyFrom(p.work.(*network.Network))
		}
		invalidate()
		if budget > 0 {
			if _, depth := nw.Levels(); depth > budget {
				nw.CopyFrom(snapshot)
				invalidate()
				st.DepthRejected++
				return false
			}
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
	return true
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
	// accepted slot + 1, or every slot when nothing commits (or under
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

// drive is the one select-and-commit loop every dividend runs through, in
// both schedules. run executes slots [lo, hi) — a wave on the evaluator's
// pool in the serial driver, one slot at a time on the member's worker in
// a batch — and accept tries to commit a plan. Plans are offered under one
// rule: the first positive-gain slot in slot order (the paper's greedy
// rule), or, under Options.BestGain, once every slot has run, each
// positive-gain slot in gain-descending order (ties to the earlier slot).
// A refused plan (a depth-budget rejection, undone byte-exactly) passes the
// turn: BestGain offers the next best; the greedy rule resumes at the next
// slot, re-running the rest of the wave as a one-worker run would. Only
// when nothing commits is the pooled fallback planned on sc and offered.
// drive reports whether accept took a plan.
func (q *trialSeq) drive(sc *scratch, nw network.Reader, opt Options, width int, run func(lo, hi int), accept func(p plan) bool) bool {
	n := len(q.slots)
	q.consumed = n
	if opt.BestGain {
		run(0, n)
		order := make([]int, 0, n)
		for i := range q.slots {
			if q.positive(i) {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return q.slots[order[a]].p.gain > q.slots[order[b]].p.gain
		})
		for _, i := range order {
			if accept(q.slots[i].p) {
				return true
			}
		}
	} else {
		for lo := 0; lo < n; {
			hi := min(lo+width, n)
			run(lo, hi)
			next := hi
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
				if accept(q.slots[i].p) {
					return true // paper: take the first positive-gain division
				}
				q.consumed, next = n, i+1
				break
			}
			lo = next
		}
	}
	if opt.Pool && opt.Config != Basic {
		q.cur = n
		if p, ok := planPooled(sc, nw, q.f, q.cands, opt); ok {
			return accept(p)
		}
	}
	return false
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
	// epoch counts live-network mutation attempts. Each scratch tags its
	// memoized shared base build with the epoch it was built in (see
	// scratch.baseBuild), so no base is ever patched after the network it
	// snapshots may have changed. Even a depth-rejected commit — undone
	// byte-exactly — bumps it: one redundant rebuild is cheaper than
	// reasoning about undo fidelity here.
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

// commit applies a plan through commitPlan, first bumping the epoch and
// stamping it into every scratch, so each one's memoized base build of the
// live network is invalidated before the network can change. No worker runs
// while the serial side commits, so it may write the scratches here.
func (ev *evaluator) commit(nw *network.Network, p plan, opt Options, cc *complCache, sigs *sigCache, st *Stats) bool {
	ev.epoch++
	for _, sc := range ev.scratches {
		sc.epoch = ev.epoch
	}
	return commitPlan(nw, p, opt, cc, sigs, st)
}
