package core

import (
	"fmt"
	"sync"

	"repro/internal/cube"
	"repro/internal/network"
)

// Trial memoization: a sharded, worker-shared cache of division-trial
// outcomes keyed by a canonical fingerprint of the trial. The engine's hot
// path is the exact trial — clone, netlist build, implication run — and
// after one committed substitution the next pass re-runs almost every trial
// verbatim, because most (dividend, divisor) pairs' fanin cones are
// untouched. A cache hit replays the stored verdict (no division exists) or
// plan (the exact replacement and gain) without any of that work.
//
// Key derivation. A trial's outcome is a function of the dividend's and the
// divisor's transitive-fanin-cone structures plus the option bits that
// steer the division, so the key folds together:
//
//   - the ConeHash of f and of d (network/conehash.go — structural 128-bit
//     hashes over names, fanin lists, and exact cover bytes);
//   - the candidate form (plain / complement-phase / POS), Options.Config,
//     the normalized MaxComplementCubes bound, and WindowDepth;
//   - for ExtendedGDC trials in SOP form, the order-sensitive whole-network
//     digest (ConeTable.NetHash): GDC runs learning-capped implications
//     over the entire netlist, whose gate numbering follows node creation
//     order, so those outcomes are not cone-local. POS-form candidates
//     degrade GDC to Extended internally (pos.go) and stay cone-keyed.
//
// Invalidation is implicit, by key: a committed rewrite changes the cone
// hashes of exactly the rewritten signals and their transitive fanout
// (ConeTable.Refresh recomputes only that closure), so entries for
// untouched cones keep matching across commits and passes while entries
// under a changed cone simply never match again. Stats.CacheInvalidated
// reports the per-Refresh changed-hash count.
//
// Result invisibility. A hit must reproduce planPair's result byte-exactly.
// Node-function plans are stored as (fanins, cover) and deep-copied both
// ways, so a hit aliases nothing. Whole-network plans (extended division's
// divisor decomposition) cannot be stored as the rewritten network — that
// snapshot embeds every *other* node as of trial time and would clobber
// later commits if replayed verbatim — so the entry stores only the DELTA:
// the final (fanins, cover) of f, of d, and of the added core node, and a
// hit replays the delta onto a clone of the *current* network. The replay
// is valid only when the core's fresh name is still what the trial would
// pick (nw.FreshName("bdc") probe); otherwise the hit degrades to a miss
// and the trial runs for real.
//
// Concurrency. Key derivation runs on the serial side (trialSeq.prepare).
// Lookups and replays run in the worker slot function (trialSeq.runSlot),
// behind per-shard mutexes. Stores are buffered per slot and published by
// the serial side (trialSeq.publish), only for the slots a one-worker run
// evaluates: before each commit attempt and when the serial driver's
// sequence ends, or at a batch member's sweep slot. The content every slot
// reads is therefore frozen while any slot runs, and stores land in slot
// order. Entries are immutable after store, and replay clones everything
// it hands out, so `go test -race` stays quiet at any worker count.

// trialShards is the shard count of the cache map (power of two).
const trialShards = 16

// trialShardCap bounds one shard's entry count; on overflow the shard is
// cleared (a full epoch drop is simpler than LRU and the cache refills in
// one wave).
const trialShardCap = 1 << 14

// trialKey is the canonical 128-bit fingerprint of one division trial.
type trialKey [2]uint64

// TrialCache memoizes division-trial outcomes. The zero value is not
// usable; call NewTrialCache. A cache may be shared across Substitute runs
// (and across networks): keys are structural, so an entry can only be
// replayed against a cone that is byte-identical to the one it was proven
// on.
type TrialCache struct {
	shards [trialShards]trialShard
}

type trialShard struct {
	mu sync.Mutex
	m  map[trialKey]*trialEntry
}

// NewTrialCache returns an empty trial cache.
func NewTrialCache() *TrialCache {
	tc := &TrialCache{}
	for i := range tc.shards {
		tc.shards[i].m = make(map[trialKey]*trialEntry)
	}
	return tc
}

// Len returns the total number of cached entries (for tests and reporting).
func (tc *TrialCache) Len() int {
	n := 0
	for i := range tc.shards {
		s := &tc.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// trialEntry is one memoized trial outcome, immutable once stored.
type trialEntry struct {
	ok      bool // planPair's ok: false = no division exists (negative verdict)
	gain    int
	pos     bool
	dec     bool
	removed int

	// fing, when hasFing is set, holds the independently seeded structural
	// fingerprints of the dividend's and divisor's cones at store time
	// (network.ConeFingerprint). Recorded only when the storing run had
	// Options.Audit on; hits under Audit compare it against the current
	// cones to unmask 128-bit key collisions (Stats.CacheCollisions).
	fing    [2]network.ConeHash
	hasFing bool

	// Node-function rewrite (isWork false, ok true).
	newFanins []string
	newCover  cube.Cover

	// Whole-network rewrite delta (isWork true, ok true): the final node
	// states of the dividend, the divisor, and — when the divisor was
	// decomposed — the added core node.
	isWork     bool
	core       string // decomposition core node name ("" = none)
	coreFanins []string
	coreCover  cube.Cover
	dFanins    []string
	dCover     cube.Cover
	fFanins    []string
	fCover     cube.Cover
}

//bdslint:hotpath
func (tc *TrialCache) shard(k trialKey) *trialShard {
	return &tc.shards[k[0]&(trialShards-1)]
}

// lookup returns the entry for k, if any.
//
//bdslint:hotpath
func (tc *TrialCache) lookup(k trialKey) (*trialEntry, bool) {
	s := tc.shard(k)
	s.mu.Lock()
	e, ok := s.m[k]
	s.mu.Unlock()
	return e, ok
}

// store memoizes one planPair outcome. Everything reachable from the plan
// is deep-copied: the plan's slices and covers go on to be committed into
// the live network, and a cache entry must never alias live structure.
// fing/hasFing carry the audit-mode cone fingerprints (zero/false when the
// run is not auditing).
func (tc *TrialCache) store(k trialKey, p plan, ok bool, fing [2]network.ConeHash, hasFing bool) {
	e := &trialEntry{ok: ok, fing: fing, hasFing: hasFing}
	if ok {
		e.gain = p.gain
		e.pos = p.pos
		e.dec = p.dec
		e.removed = p.removed
		if p.isNode() {
			e.newFanins = append([]string(nil), p.newFanins...)
			e.newCover = p.newCover.Clone()
		} else {
			e.isWork = true
			fn := p.work.Node(p.target)
			dn := p.work.Node(p.divisor)
			if fn == nil || dn == nil {
				return // malformed plan: never cache
			}
			e.fFanins = append([]string(nil), fn.Fanins...)
			e.fCover = fn.Cover.Clone()
			e.dFanins = append([]string(nil), dn.Fanins...)
			e.dCover = dn.Cover.Clone()
			if p.core != "" {
				cn := p.work.Node(p.core)
				if cn == nil {
					return
				}
				e.core = p.core
				e.coreFanins = append([]string(nil), cn.Fanins...)
				e.coreCover = cn.Cover.Clone()
			}
		}
	}
	s := tc.shard(k)
	s.mu.Lock()
	if len(s.m) >= trialShardCap {
		s.m = make(map[trialKey]*trialEntry)
	}
	s.m[k] = e
	s.mu.Unlock()
}

// replay reconstructs the memoized planPair result against the current
// network. usable=false means the entry cannot be replayed here (the core
// node's fresh name is taken, or a delta no longer applies) and the caller
// must fall back to a real trial; ok mirrors planPair's second result.
// noOverlay selects the working-copy shape for whole-network plans — an
// overlay delta by default, a deep clone under Options.NoOverlay — matching
// what a fresh trial would hand commitPlan.
func (e *trialEntry) replay(nw network.Reader, f, d string, noOverlay bool) (p plan, ok, usable bool) {
	if !e.ok {
		return plan{}, false, true // cached negative verdict
	}
	p = plan{
		target:  f,
		divisor: d,
		gain:    e.gain,
		pos:     e.pos,
		dec:     e.dec,
		removed: e.removed,
	}
	if !e.isWork {
		p.newFanins = append([]string(nil), e.newFanins...)
		p.newCover = e.newCover.Clone()
		return p, true, true
	}
	// Whole-network delta: the replay must land exactly where a fresh trial
	// would. The fresh trial names its core via FreshName("bdc") on a clone
	// of the current network, so if that probe disagrees with the stored
	// name the entry is not replayable here.
	if e.core != "" && nw.FreshName("bdc") != e.core {
		return plan{}, false, false
	}
	var work trialNet
	if noOverlay {
		work = nw.Clone()
	} else {
		work = network.NewOverlay(nw)
	}
	if e.core != "" {
		work.AddNode(e.core, append([]string(nil), e.coreFanins...), e.coreCover.Clone())
	}
	if err := work.ReplaceNodeFunction(d, append([]string(nil), e.dFanins...), e.dCover.Clone()); err != nil {
		return plan{}, false, false
	}
	if err := work.ReplaceNodeFunction(f, append([]string(nil), e.fFanins...), e.fCover.Clone()); err != nil {
		return plan{}, false, false
	}
	p.core = e.core
	p.work = work
	p.touched = []string{f, d}
	return p, true, true
}

// mix64 is the key mixer (splitmix64 finalizer; network's copy is
// unexported and this package must not depend on its internals).
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fold absorbs one word into the key.
func (k *trialKey) fold(w uint64) {
	k[0] = mix64(k[0] ^ w)
	k[1] = mix64(k[1] + w + k[0])
}

// trialCacheKey derives the canonical fingerprint of the (f, cand) trial
// under opt from the network's cone table. ok=false when the table is
// stale or a needed hash is missing — the trial then runs uncached.
//
//bdslint:hotpath
func trialCacheKey(ct *network.ConeTable, f string, cand candidate, opt Options) (trialKey, bool) {
	if ct == nil {
		return trialKey{}, false
	}
	fh, ok := ct.Hash(f)
	if !ok {
		return trialKey{}, false
	}
	dh, ok := ct.Hash(cand.name)
	if !ok {
		return trialKey{}, false
	}
	maxCompl := opt.MaxComplementCubes
	if maxCompl <= 0 {
		maxCompl = DefaultMaxComplementCubes
	}
	k := trialKey{fh[0], fh[1]}
	k.fold(dh[0])
	k.fold(dh[1])
	k.fold(uint64(formRank(cand)) | uint64(opt.Config)<<8 | uint64(maxCompl)<<16 | uint64(opt.WindowDepth)<<40)
	if opt.Config == ExtendedGDC && !cand.pos {
		// GDC-scope implications read the whole netlist (gate numbering
		// included), so the key must pin the entire network state. POS-form
		// candidates degrade GDC to Extended internally and stay cone-local.
		nh, ok := ct.NetHash()
		if !ok {
			return trialKey{}, false
		}
		k.fold(nh[0])
		k.fold(nh[1])
	}
	return k, true
}

// auditCachedHit (Options.Audit) re-runs the trial for real and panics
// unless the replayed plan matches the fresh one byte-for-byte — the
// runtime tripwire for a corrupted or stale cache entry. O(trial), so it
// exists for tests and debugging, not production.
func auditCachedHit(sc *scratch, nw network.Reader, f string, cand candidate, opt Options, got plan, gotOK bool) {
	want, wantOK := planPair(sc, nw, f, cand, opt)
	if err := comparePlans(got, gotOK, want, wantOK); err != nil {
		panic(fmt.Sprintf("core: trial cache audit: f=%s d=%s: %v", f, cand.name, err))
	}
}

// comparePlans reports the first divergence between a replayed and a fresh
// plan, or nil when they agree.
func comparePlans(got plan, gotOK bool, want plan, wantOK bool) error {
	if gotOK != wantOK {
		return fmt.Errorf("cached ok=%v, fresh ok=%v", gotOK, wantOK)
	}
	if !gotOK {
		return nil
	}
	if got.gain != want.gain {
		return fmt.Errorf("cached gain=%d, fresh gain=%d", got.gain, want.gain)
	}
	if got.pos != want.pos || got.dec != want.dec || got.removed != want.removed {
		return fmt.Errorf("cached form (pos=%v dec=%v removed=%d) != fresh (pos=%v dec=%v removed=%d)",
			got.pos, got.dec, got.removed, want.pos, want.dec, want.removed)
	}
	if got.isNode() != want.isNode() {
		return fmt.Errorf("cached isNode=%v, fresh isNode=%v", got.isNode(), want.isNode())
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
			return fmt.Errorf("work node %q present=%v, fresh present=%v", name, gn != nil, wn != nil)
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
