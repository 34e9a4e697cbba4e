package core

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// Options configure the substitution driver.
type Options struct {
	// Config selects basic / extended / extended+GDC division.
	Config Config
	// POS also tries product-of-sum-form substitution for every pair.
	POS bool
	// MaxComplementCubes bounds POS complement sizes (0 = default).
	MaxComplementCubes int
	// MaxPasses bounds the outer sweeps over the network (<= 0 = 2).
	MaxPasses int
	// MaxDivisorTrials caps how many divisors are tried per dividend after
	// filtering (<= 0 = 32).
	MaxDivisorTrials int
	// Pool also tries multi-node divisor pooling (Section IV's
	// generalization) when no single divisor yields a gain. Only used by
	// the Extended and ExtendedGDC configurations.
	Pool bool
	// BestGain evaluates every candidate divisor for a node and commits the
	// best one, instead of the paper's first-positive-gain greedy rule. The
	// paper attributes its Table V anomaly (ext+GDC underperforming ext) to
	// the greedy rule; this option exists to measure that explanation
	// (BenchmarkAblationAcceptance).
	BestGain bool
	// WindowDepth, when positive, runs each basic/complement/POS division
	// on a sub-network windowed to the dividend's and divisor's fanin cones
	// of that depth, making the per-trial cost independent of circuit size.
	// Implications in the window are a subset of whole-network implications,
	// so every windowed division remains sound; deep Boolean relationships
	// beyond the window are simply not exploited. Extended division (and
	// GDC) always uses the whole network.
	WindowDepth int
	// DepthBudget, when positive, rejects any substitution that would push
	// the network's logic depth beyond the budget — the delay-aware mode
	// (substitution reuses deep signals and can otherwise lengthen paths).
	DepthBudget int
	// Workers bounds the planner worker pool: divisor trials (a wave of one
	// node's candidates, or a batch of nodes' trial sequences) are evaluated
	// by up to this many goroutines against a read-only view of the
	// network, then committed serially in deterministic order (0 =
	// GOMAXPROCS). The committed network is bit-identical at any worker
	// count; only wall time changes.
	Workers int
	// NoSigFilter disables the simulation-signature divisor prefilter. The
	// filter (on by default) skips exact division trials whose signature
	// necessary condition fails — it can only skip trials that would not
	// have produced a committable (positive-gain) plan, so the committed
	// network is bit-identical either way; only the trial count and wall
	// time change (see sigfilter.go).
	NoSigFilter bool
	// TrialCache supplies a shared trial memoization cache (see
	// trialcache.go): division-trial outcomes keyed by the canonical
	// structural fingerprint of the trial, replayed on a hit without the
	// clone/netlist/implication work. nil = the run creates a private cache
	// (entries live across that run's passes); supply one explicitly to
	// share proven trials across Substitute calls. The cache is
	// result-invisible: the committed network is bit-identical with the
	// cache on or off, at any worker count.
	TrialCache *TrialCache
	// NoTrialCache disables trial memoization entirely (the `-nocache`
	// flag). Only trial counts and wall time change; the result does not.
	NoTrialCache bool
	// NoBatch disables the cone-disjoint batch scheduler (batch.go): every
	// dividend is then planned and committed one node at a time — the
	// historical schedule, in which extra workers only widen a node's trial
	// wave. The scheduler is result-invisible: the committed network is
	// byte-identical with batching on or off, at any worker count (the
	// invariant tests enforce it); only the scheduling statistics and wall
	// time change. Batching is also disabled implicitly for ExtendedGDC
	// (its trials are keyed on the whole-network state, so speculation
	// across commits can never be validated) and under a DepthBudget
	// (commit-time rejection re-opens a node's trial sequence, which only
	// the serial schedule reproduces).
	NoBatch bool
	// NoOverlay disables the copy-on-write trial path: every division trial
	// runs on a full deep clone of the network and every RAR pass rebuilds
	// its netlist from scratch — the historical engine. The overlay path is
	// result-invisible (the committed network is byte-identical with
	// overlays on or off, at any worker count; the invariant tests and the
	// Audit cross-check enforce it), so this is an escape hatch and the
	// audit reference, not a tuning knob.
	NoOverlay bool
	// Audit runs network.Check after every committed substitution, re-runs
	// every trial-cache hit for real, and re-runs every overlay-path trial
	// on the deep-clone path, panicking unless the plans match
	// byte-for-byte. The audits are O(network)/O(trial), so this is a
	// debugging/testing mode, not a production default; the integration
	// tests and the fuzz harness enable it.
	Audit bool
	// Clock supplies the wall-clock reads behind Stats.PassTimes (nil =
	// WallClock). Timing is reporting-only — no engine decision reads it —
	// and the seam exists so tests can fake it and so the noclock analyzer
	// can confine real clock reads to the one sanctioned WallClock site.
	Clock Clock
}

// Stats summarizes a substitution run.
type Stats struct {
	// Substitutions counts accepted divisions (SOP + POS).
	Substitutions int
	// POSSubstitutions counts those performed in product-of-sum form.
	POSSubstitutions int
	// Decompositions counts divisor decompositions (extended division).
	Decompositions int
	// WiresRemoved totals RAR removals in accepted divisions.
	WiresRemoved int
	// LitsBefore/LitsAfter are factored-form literal totals.
	LitsBefore, LitsAfter int
	// DivisorTrials counts exact division plans actually evaluated —
	// candidates the signature prefilter rejected are not included (they are
	// counted in SigFilterReject). Like every trial, filter and trial-cache
	// counter it is the same at any worker count: only the trials a
	// one-worker run evaluates are tallied (wave trials past the committed
	// one are SpeculatedTrials).
	DivisorTrials int
	// SigFilterReject counts candidates the simulation-signature prefilter
	// rejected: trials skipped without building a netlist or running
	// implications. SigFilterPass counts candidates that passed the filter
	// while it was active, and SigFilterFalsePass counts the passed
	// candidates whose exact trial then produced no committable
	// (positive-gain) plan anyway — the filter's false-pass population
	// (passes − false passes yielded a commit-worthy plan).
	SigFilterReject, SigFilterPass, SigFilterFalsePass int
	// DepthRejected counts plans whose commit was undone because the result
	// exceeded Options.DepthBudget.
	DepthRejected int
	// SigCacheHits/SigCacheMisses count lookups of per-node cube literal
	// signatures during candidate filtering.
	SigCacheHits, SigCacheMisses int
	// CacheHits counts divisor trials replayed from the trial memoization
	// cache (no clone, netlist, or implication run — but still counted in
	// DivisorTrials, since the verdict was consumed). CacheMisses counts
	// trials that ran for real while the cache was active. CacheInvalidated
	// totals the cone-hash entries committed rewrites changed or dropped
	// (ConeTable.Refresh's changed count): the number of structural keys
	// each commit killed, 0 for the initial hash computation.
	CacheHits, CacheMisses, CacheInvalidated int
	// CacheCollisions counts trial-cache hits rejected under Options.Audit
	// because the entry's structural cone fingerprint (an independently
	// seeded recomputation — network.ConeFingerprint) disagreed with the
	// current cones: two distinct cones folded onto one 128-bit cache key.
	// The colliding hit degrades to a real trial, so a collision costs
	// correctness nothing; a nonzero count is the signal that the cone-hash
	// width is being stressed.
	CacheCollisions int
	// ComplCacheHits/ComplCacheMisses count memoized complement-cover
	// lookups (POS and complement-phase filtering).
	ComplCacheHits, ComplCacheMisses int
	// SpeculatedTrials counts trial verdicts produced ahead of the serial
	// schedule: divisor trials (cache replays included) and pooled trials
	// the batch scheduler evaluated against a batch-start snapshot before
	// the sweep decided whether their dividend's speculation was still
	// valid, and admitted wave slots past the slot the serial driver
	// stopped at. With the complement-cache counters and PassTimes, the
	// speculation counters are the only Stats fields that vary with
	// Workers.
	SpeculatedTrials int
	// DiscardedPlans counts positive-gain plans thrown away unused — their
	// batch member was evicted from the sweep (a conflicting earlier commit
	// invalidated the speculation), its commit failed, or a wave ran them
	// past the committed slot. The classic wasted-speculation number: work
	// that produced a committable plan the network never saw.
	DiscardedPlans int
	// BatchCommits counts plans committed straight out of a batch sweep
	// (serial re-run commits after an eviction are ordinary Substitutions
	// but not BatchCommits).
	BatchCommits int
	// ConflictEvictions counts members a sweep evicted and re-ran serially
	// because an earlier commit of the same sweep invalidated their
	// batch-start speculation.
	ConflictEvictions int
	// Passes counts completed sweeps over the network.
	Passes int
	// PassTimes records wall time per pass.
	PassTimes []time.Duration
}

// Accumulate folds another run's statistics into s: counters are summed and
// pass times appended. LitsBefore keeps the first accumulated run's value
// (when s is zero) and LitsAfter always tracks the latest run, so a
// multi-call flow reports its end-to-end literal movement.
func (s *Stats) Accumulate(o Stats) {
	if s.Passes == 0 && s.LitsBefore == 0 {
		s.LitsBefore = o.LitsBefore
	}
	s.LitsAfter = o.LitsAfter
	s.Substitutions += o.Substitutions
	s.POSSubstitutions += o.POSSubstitutions
	s.Decompositions += o.Decompositions
	s.WiresRemoved += o.WiresRemoved
	s.DivisorTrials += o.DivisorTrials
	s.SigFilterReject += o.SigFilterReject
	s.SigFilterPass += o.SigFilterPass
	s.SigFilterFalsePass += o.SigFilterFalsePass
	s.DepthRejected += o.DepthRejected
	s.SigCacheHits += o.SigCacheHits
	s.SigCacheMisses += o.SigCacheMisses
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheInvalidated += o.CacheInvalidated
	s.CacheCollisions += o.CacheCollisions
	s.ComplCacheHits += o.ComplCacheHits
	s.ComplCacheMisses += o.ComplCacheMisses
	s.SpeculatedTrials += o.SpeculatedTrials
	s.DiscardedPlans += o.DiscardedPlans
	s.BatchCommits += o.BatchCommits
	s.ConflictEvictions += o.ConflictEvictions
	s.Passes += o.Passes
	s.PassTimes = append(s.PassTimes, o.PassTimes...)
}

// FalsePassRate is the fraction of filter-passed candidates whose exact
// trial found no division anyway (0 when the filter never passed anything).
// Low is good: the signature test predicted trial failure well.
func (s *Stats) FalsePassRate() float64 {
	if s.SigFilterPass == 0 {
		return 0
	}
	return float64(s.SigFilterFalsePass) / float64(s.SigFilterPass)
}

// CacheHitRate is the fraction of cache-consulted trials served from the
// trial memoization cache (0 when the cache never saw a trial).
func (s *Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Substitute runs Boolean substitution over the whole network with the
// paper's locally greedy acceptance: for each node, divisors are tried in a
// deterministic order and the first division with a positive factored-
// literal gain is committed. Passes repeat until a fixed point (bounded by
// MaxPasses).
//
// Trials are evaluated by the plan/commit engine (see engine.go). Every
// candidate goes through one trial sequence: the serial side prepares its
// filter verdict and cache key, a worker replays a cache hit or runs the
// real trial against a read-only view, and the serial side publishes the
// cache stores. One select-and-commit loop (trialSeq.drive) picks the plan
// for every dividend, and two schedules drive it through one bounded worker
// pool. The batch scheduler (batch.go) runs whole trial sequences of
// cone-disjoint dividends in parallel and commits the survivors in a serial
// sweep. Otherwise the serial driver plans waves of up to Options.Workers
// candidates of one dividend concurrently and reduces each wave in
// candidate order. Commits are always serial, so the result is identical
// to the serial schedule at any worker count. A panic inside a trial is
// re-raised on the calling goroutine, naming its dividend and divisor.
func Substitute(nw *network.Network, opt Options) Stats {
	maxPasses := opt.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 2
	}
	maxTrials := opt.MaxDivisorTrials
	if maxTrials <= 0 {
		maxTrials = 32
	}
	maxCompl := opt.MaxComplementCubes
	if maxCompl <= 0 {
		maxCompl = DefaultMaxComplementCubes
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev := newEvaluator(workers)
	clk := opt.Clock
	if clk == nil {
		clk = WallClock{}
	}
	st := Stats{LitsBefore: nw.FactoredLits()}

	// Simulation signatures for the divisor prefilter: enabled on the live
	// network for the duration of the run, refreshed incrementally after
	// commits (only a committed rewrite's transitive fanout is recomputed).
	var sigTab *network.SigTable
	if !opt.NoSigFilter {
		sigTab = nw.EnableSigs()
		defer nw.DisableSigs()
	}

	// Trial memoization (see trialcache.go): structural cone hashes on the
	// live network key a worker-shared cache of trial outcomes. A private
	// cache still pays off — entries survive across the run's passes, and
	// most second-pass trials replay. Invalidation is implicit: Refresh
	// recomputes the hashes a commit changed, so stale keys never match.
	var tc *TrialCache
	var coneTab *network.ConeTable
	if !opt.NoTrialCache {
		tc = opt.TrialCache
		if tc == nil {
			tc = NewTrialCache()
		}
		coneTab = nw.EnableCones()
		defer nw.DisableCones()
	}

	// The complement and signature caches survive across passes: commits
	// invalidate every touched name (the same mechanism that keeps them
	// correct across commits within a pass), so entries for untouched nodes
	// stay valid and the second pass skips their recomputation entirely.
	cc := newComplCache(maxCompl)
	sigs := newSigCache(nw)

	r := &run{
		nw:        nw,
		opt:       opt,
		maxTrials: maxTrials,
		ev:        ev,
		st:        &st,
		cc:        cc,
		sigs:      sigs,
		tc:        tc,
		sigTab:    sigTab,
		coneTab:   coneTab,
	}
	// The cone-disjoint batch scheduler (batch.go) speculates whole groups
	// of cone-disjoint dividends per worker dispatch and commits the
	// surviving plans in one serial sweep, so every in-flight trial is
	// committable work instead of a wave that dies with the first commit.
	// See Options.NoBatch for when it must stay off.
	if !opt.NoBatch && opt.Config != ExtendedGDC && opt.DepthBudget <= 0 {
		r.sched = newBatchScheduler(r)
	}

	for pass := 0; pass < maxPasses; pass++ {
		passStart := clk.Now()
		changed := false
		// Snapshot the pass's visiting order as dense IDs: the symbol table
		// is append-only and commits only grow the ID space, so an ID keeps
		// resolving to the same signal (or to nil once swept) even as the
		// loop mutates the network — exactly the semantics the name
		// snapshot had, without re-hashing a name per node.
		ids := append([]network.SigID(nil), nw.TopoOrderIDs()...)
		// Work outputs-first: substituting into later nodes first tends to
		// expose more sharing.
		if r.sched != nil {
			for i := len(ids) - 1; i >= 0; {
				n, ch := r.sched.runBatch(ids, i)
				changed = changed || ch
				i -= n
			}
		} else {
			for i := len(ids) - 1; i >= 0; i-- {
				if r.substituteNode(ids[i]) {
					changed = true
				}
			}
		}
		st.Passes++
		st.PassTimes = append(st.PassTimes, clk.Since(passStart))
		if !changed {
			break
		}
	}
	st.SigCacheHits = sigs.hits
	st.SigCacheMisses = sigs.misses
	st.ComplCacheHits = cc.hits
	st.ComplCacheMisses = cc.misses
	st.LitsAfter = nw.FactoredLits()
	return st
}

// run bundles one Substitute call's live state: the network, the resolved
// options, the evaluator and its caches. It exists so the per-dividend
// trial-and-commit sequence (substituteNode) is callable from both the
// serial driver loop and the batch scheduler's eviction path.
type run struct {
	nw        *network.Network
	opt       Options
	maxTrials int
	ev        *evaluator
	st        *Stats
	cc        *complCache
	sigs      *sigCache
	tc        *TrialCache
	sigTab    *network.SigTable
	coneTab   *network.ConeTable
	sched     *batchScheduler // nil = batch scheduling off
}

// commit routes a plan through the evaluator's serial committer. While a
// batch sweep is active it also folds the commit's touched and support
// sets into the scheduler's conflict marks, so eviction checks for later
// members of the sweep see serial re-run commits too — not only the
// sweep's own plan commits.
func (r *run) commit(p plan) bool {
	s := r.sched
	if s == nil || !s.sweeping {
		return r.ev.commit(r.nw, p, r.opt, r.cc, r.sigs, r.st)
	}
	pre := s.precommit(&p)
	ok := r.ev.commit(r.nw, p, r.opt, r.cc, r.sigs, r.st)
	if ok {
		s.postcommit(pre)
	}
	return ok
}

// candidates lists f's divisor candidates in trial order, capped at
// Options.MaxDivisorTrials.
func (r *run) candidates(f string) []candidate {
	cands := candidateDivisors(r.nw, r.sigs, r.cc, f, r.opt, r.ev.index(r.nw))
	if len(cands) > r.maxTrials {
		cands = cands[:r.maxTrials]
	}
	return cands
}

// substituteNode runs the full serial trial-and-commit sequence for one
// dividend — the historical per-node schedule, through the shared driver in
// waves of Workers slots, committing as it selects — and reports whether a
// plan committed. The serial driver calls it for every node; the batch
// scheduler calls it for single-member batches and for members its sweep
// evicted.
func (r *run) substituteNode(id network.SigID) bool {
	nw, opt, ev := r.nw, r.opt, r.ev
	fn := nw.NodeByID(id)
	if fn == nil || fn.Cover.IsZero() {
		return false
	}
	f := fn.Name
	cands := r.candidates(f)
	// The candidate list above is fixed before filtering: the
	// signature prefilter only short-circuits trials inside it (it
	// never reorders or reveals extra candidates), which is what
	// keeps the committed network identical with the filter off.
	var sf *simSigFilter
	if len(cands) > 0 {
		if r.sigTab != nil {
			r.sigTab.Refresh()
		}
		if r.coneTab != nil {
			r.st.CacheInvalidated += r.coneTab.Refresh()
		}
		sf = newSimSigFilter(nw, f, r.cc, opt)
	}
	q := newTrialSeq(f, cands, sf)
	committed := q.drive(ev.scratches[0], nw, opt, ev.workers, func(lo, hi int) {
		ev.wave(nw, &q, lo, hi, opt, r.tc)
	}, func(p plan) bool {
		q.publish(r.tc)
		return r.commit(p)
	})
	q.publish(r.tc)
	q.tally(r.st, r.tc != nil)
	return committed
}

// candidate pairs a divisor node with the form that passed the structural
// prefilter: plain SOP, complement-phase SOP (divide by d'), or POS.
//
// The complement covers the form needs are memoized here at enumeration
// time (they are complCache results the prefilter computed anyway), so the
// parallel trials skip the per-trial Complement/Minimize recomputation.
// Safe to share: nothing commits between enumeration and this node's
// trials, the covers are never mutated, and Complement/Minimize are
// deterministic — a trial reading the carried cover is byte-identical to
// one recomputing it. nil = not prefetched; the divide routines recompute
// (public one-shot wrappers, hand-built candidates in tests).
type candidate struct {
	name string
	pos  bool
	neg  bool

	dCompl    *cube.Cover // d's complement (complement-phase SOP form)
	dComplMin *cube.Cover // minimized d complement (POS form)
	fComplMin *cube.Cover // minimized f complement (POS form)
}

// sigCache caches per-node cube literal signatures ((signal, phase) sets)
// for the containment prefilter, indexed by the live network's dense SigID
// (stable across commits — the symbol table is append-only). Like
// complCache it is only read and written on the serial side of the engine.
type sigCache struct {
	nw           *network.Network
	sigs         [][][]sigLit
	has          []bool
	hits, misses int
}

type sigLit struct {
	sig string
	neg bool
}

func newSigCache(nw *network.Network) *sigCache {
	return &sigCache{nw: nw}
}

//bdslint:hotpath
func (sc *sigCache) get(name string) [][]sigLit {
	id, interned := sc.nw.IDOf(name)
	if interned && int(id) < len(sc.has) && sc.has[id] {
		sc.hits++
		return sc.sigs[id]
	}
	sc.misses++
	n := sc.nw.Node(name)
	if n == nil {
		return nil
	}
	s := coverSigs(n.Cover, n.Fanins)
	for int(id) >= len(sc.has) {
		sc.has = append(sc.has, false)
		sc.sigs = append(sc.sigs, nil)
	}
	sc.sigs[id] = s
	sc.has[id] = true
	return s
}

func (sc *sigCache) invalidate(name string) {
	if id, ok := sc.nw.IDOf(name); ok && int(id) < len(sc.has) {
		sc.has[id] = false
		sc.sigs[id] = nil
	}
}

// reset drops every entry (see complCache.reset).
func (sc *sigCache) reset() {
	for i := range sc.has {
		sc.has[i] = false
		sc.sigs[i] = nil
	}
}

func coverSigs(cov cube.Cover, fanins []string) [][]sigLit {
	out := make([][]sigLit, 0, cov.NumCubes())
	for _, c := range cov.Cubes {
		row := make([]sigLit, 0, c.NumLits())
		for v := 0; v < c.NumVars(); v++ {
			if p := c.Get(v); p == cube.Pos || p == cube.Neg {
				row = append(row, sigLit{fanins[v], p == cube.Neg})
			}
		}
		// Stable-by-construction insertion sort on (sig, pos-first); keys
		// are unique (one entry per variable, fanin names distinct), so the
		// order matches what any comparison sort produces.
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && lessSigLit(row[j], row[j-1]); j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		out = append(out, row)
	}
	return out
}

func lessSigLit(a, b sigLit) bool {
	if a.sig != b.sig {
		return a.sig < b.sig
	}
	return !a.neg
}

// subsetSig reports whether literal set a ⊆ b (both sorted).
func subsetSig(a, b []sigLit) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// anyContainment reports whether some cube of d (literal-subset) is
// contained in some cube of f — the structural precondition for a non-empty
// SOS split.
func anyContainment(dSigs, fSigs [][]sigLit) bool {
	for _, dc := range dSigs {
		if len(dc) == 0 {
			continue // universal divisor cube: constant; skip
		}
		for _, fc := range fSigs {
			if len(dc) <= len(fc) && subsetSig(dc, fc) {
				return true
			}
		}
	}
	return false
}

// candidateDivisors lists divisor nodes worth trying for f, most-promising
// first: candidates are ordered by shared-support size (descending, then
// name, then form) so the paper's first-positive-gain rule sees the
// likeliest divisors early. The order is deterministic — it is the trial
// order the engine's reducer replays plans in.
//
// With a passIndex for nw, enumeration is support-local: only the fanouts
// of f's fanins are visited (the set every candidate provably belongs to —
// see below), replacing the historical all-nodes scan plus per-dividend
// TFOSetIDs rebuild, which made a pass O(V²) on large circuits. ix == nil
// (one-shot wrappers, probes, tests) falls back to the full scan. Both
// enumerations return identical lists: every division form requires
// anyContainment — a non-empty divisor-side cube whose literals are a
// subset of a dividend-side cube's literals. Literal signatures are
// (fanin-name, phase) pairs drawn from the respective nodes' own fanin
// lists (complement covers keep their node's variable space), so a passing
// candidate shares at least one fanin signal with f and is therefore a
// fanout of one of f's fanins. The final sort key (overlap, name, form) is
// total — no two candidates compare equal — so the enumeration order never
// shows through (TestCandidateEnumerationEquivalence locks the claim).
func candidateDivisors(nw *network.Network, sigs *sigCache, cc *complCache, f string, opt Options, ix *passIndex) []candidate {
	fSigs := sigs.get(f)
	fn := nw.Node(f)
	var fcSigs [][]sigLit
	if opt.POS {
		if s, _, ok := cc.getSigs(nw, f, fn.Fanins); ok {
			fcSigs = s
		}
	}
	fid, _ := nw.IDOf(f)
	var out []scored
	consider := func(d string, dn *network.Node) {
		if dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse() {
			return
		}
		// Support overlap by slice scan: fanin lists are a handful of
		// signals, so linear containment beats building a support set per
		// dividend.
		overlap := 0
		for _, s := range dn.Fanins {
			if fn.FaninIndex(s) >= 0 {
				overlap++
			}
		}
		if anyContainment(sigs.get(d), fSigs) {
			out = append(out, scored{candidate{name: d}, overlap})
		}
		if dcSigs, dcov, ok := cc.getSigs(nw, d, dn.Fanins); ok {
			// Complement-phase SOP division (f = q·d' + r) — the phase the
			// SIS resub -d baseline exploits.
			if anyContainment(dcSigs, fSigs) {
				dc := dcov
				out = append(out, scored{candidate{name: d, neg: true, dCompl: &dc}, overlap})
			}
			if opt.POS && fcSigs != nil && anyContainment(dcSigs, fcSigs) {
				c := candidate{name: d, pos: true}
				if dcm, ok := cc.getMin(nw, d); ok {
					if fcm, ok := cc.getMin(nw, f); ok {
						c.dComplMin, c.fComplMin = &dcm, &fcm
					}
				}
				out = append(out, scored{c, overlap})
			}
		}
	}
	if ix != nil && ix.nw == nw {
		ix.beginTFO(fid) // divisors inside f's fanout cone would form cycles
		ix.beginCand()
		ix.candMark(fid)
		for _, s := range nw.FaninIDsOf(fid) {
			if int(s) >= len(ix.fanouts) {
				continue
			}
			for _, u := range ix.fanouts[s] {
				if !ix.candMark(u) || ix.inTFO(u) {
					continue
				}
				dn := nw.NodeByID(u)
				if dn == nil || dn.Cover.IsZero() || dn.Cover.NumCubes() == 0 {
					continue
				}
				consider(dn.Name, dn)
			}
		}
	} else {
		tfo := nw.TFOSetIDs(fid)
		for _, d := range nw.SortedNodeNames() {
			if d == f {
				continue
			}
			dn := nw.Node(d)
			if dn == nil || dn.Cover.IsZero() || dn.Cover.NumCubes() == 0 {
				continue
			}
			if did, ok := nw.IDOf(d); ok && tfo[did] {
				continue
			}
			consider(d, dn)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return lessScored(out[i], out[j]) })
	cands := make([]candidate, len(out))
	for i, s := range out {
		cands[i] = s.c
	}
	return cands
}

// scored is a candidate divisor with its support-overlap score against the
// dividend.
type scored struct {
	c       candidate
	overlap int
}

// lessScored is the full deterministic trial-order key: support overlap
// (descending), then divisor name, then form (plain < complement < POS).
// Overlap alone would leave tie order at the mercy of the candidate
// construction sequence — the stable sort happened to preserve a
// name-then-form order only because SortedNodeNames feeds candidates in
// that order, an invariant nothing enforced. The explicit key makes the
// trial order self-contained (and byte-identical to the historical one).
func lessScored(a, b scored) bool {
	if a.overlap != b.overlap {
		return a.overlap > b.overlap
	}
	if a.c.name != b.c.name {
		return a.c.name < b.c.name
	}
	return formRank(a.c) < formRank(b.c)
}

// formRank orders a divisor's forms for the tie-break: plain SOP division
// first, then complement-phase SOP, then POS.
func formRank(c candidate) int {
	switch {
	case c.neg:
		return 1
	case c.pos:
		return 2
	}
	return 0
}

// commitNode installs a replacement node function, minimizing the cover
// first (a prime irredundant cover keeps the downstream algebraic steps of
// a larger flow effective) and compacting the fanin list.
func commitNode(nw *network.Network, f string, fanins []string, cover cube.Cover) bool {
	m := mini.Minimize(cover, mini.Options{})
	if m.NumCubes() <= cover.NumCubes() && m.NumLits() <= cover.NumLits() {
		cover = m
	}
	if err := nw.ReplaceNodeFunction(f, fanins, cover); err != nil {
		return false
	}
	nw.NormalizeNode(f)
	return true
}
