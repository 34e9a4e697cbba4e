package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blif"
)

// TestSubstituteTrialCacheInvariant is the cache's headline guarantee: the
// committed network is byte-identical with trial memoization on or off, at
// any worker count, across multi-pass runs — and so are all the result
// statistics (gains, substitutions, trial counts). Only the cache's own
// counters may differ. Audit is on throughout, so every hit is additionally
// re-run for real and compared byte-for-byte inside the engine.
//
// Within one batch mode the statistics are also worker-invariant: every
// trial, filter and trial-cache counter matches across the worker axis;
// only wall time, the complement-cache counters and the speculation
// counters (SpeculatedTrials, DiscardedPlans) may move with Workers.
func TestSubstituteTrialCacheInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(97531))
	workerSet := []int{1, 4, runtime.GOMAXPROCS(0)}
	totalHits := 0
	run := func(t *testing.T, label, baseBLIF string, cfg Config) {
		base, err := blif.ParseString(baseBLIF)
		if err != nil {
			t.Fatal(err)
		}
		// The committed network must also be invariant across the batch
		// scheduler's on/off axis (and every worker count on both sides);
		// only the stats granularity may differ between batch modes, so the
		// field-for-field stats comparison below stays within one mode.
		wantBLIF := ""
		for _, noBatch := range []bool{false, true} {
			var wantOn, wantOff *Stats
			for _, workers := range workerSet {
				opt := Options{
					Config:    cfg,
					POS:       true,
					Pool:      true,
					MaxPasses: 3,
					Workers:   workers,
					Audit:     true,
					NoBatch:   noBatch,
				}
				on := base.Clone()
				stOn := Substitute(on, opt)
				opt.NoTrialCache = true
				off := base.Clone()
				stOff := Substitute(off, opt)
				if a, b := blif.ToString(on), blif.ToString(off); a != b {
					t.Fatalf("%s cfg %v workers %d batch=%v: trial cache changed the committed network\n--- cache on ---\n%s\n--- cache off ---\n%s",
						label, cfg, workers, !noBatch, a, b)
				}
				if wantBLIF == "" {
					wantBLIF = blif.ToString(on)
				} else if got := blif.ToString(on); got != wantBLIF {
					t.Fatalf("%s cfg %v workers %d batch=%v: batch scheduler changed the committed network\nwant:\n%s\ngot:\n%s",
						label, cfg, workers, !noBatch, wantBLIF, got)
				}
				// Full stats equality modulo the cache's own counters and wall
				// time: zero them and compare the rest field-for-field.
				normOn, normOff := stOn, stOff
				normOn.CacheHits, normOn.CacheMisses, normOn.CacheInvalidated = 0, 0, 0
				normOff.CacheHits, normOff.CacheMisses, normOff.CacheInvalidated = 0, 0, 0
				normOn.PassTimes, normOff.PassTimes = nil, nil
				if !reflect.DeepEqual(normOn, normOff) {
					t.Errorf("%s cfg %v workers %d batch=%v: stats diverged beyond cache counters:\non  %+v\noff %+v",
						label, cfg, workers, !noBatch, normOn, normOff)
				}
				if stOff.CacheHits != 0 || stOff.CacheMisses != 0 || stOff.CacheInvalidated != 0 {
					t.Errorf("%s cfg %v workers %d: disabled cache recorded activity: %+v", label, cfg, workers, stOff)
				}
				if got, want := stOn.CacheHits+stOn.CacheMisses, stOn.DivisorTrials; got != want {
					t.Errorf("%s cfg %v workers %d: hits+misses = %d, trials = %d", label, cfg, workers, got, want)
				}
				totalHits += stOn.CacheHits
				for _, c := range []struct {
					label string
					st    Stats
					want  **Stats
				}{{"on", stOn, &wantOn}, {"off", stOff, &wantOff}} {
					norm := workerNormalized(c.st)
					if *c.want == nil {
						*c.want = &norm
					} else if !reflect.DeepEqual(norm, **c.want) {
						t.Errorf("%s cfg %v batch=%v cache %s: stats moved with workers (%d vs %d):\ngot  %+v\nwant %+v",
							label, cfg, !noBatch, c.label, workers, workerSet[0], norm, **c.want)
					}
				}
			}
		}
	}
	for trial := 0; trial < 4; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			run(t, "rand", blif.ToString(base), cfg)
		}
	}
	run(t, "gain", blif.ToString(gainNetwork()), Basic)
	if totalHits == 0 {
		t.Error("cache never hit across the whole sweep — memoization is dead")
	}
}

// workerNormalized zeroes the Stats fields allowed to differ across worker
// counts: wall time, the complement-cache counters (the wave's filter
// probes warm it ahead of the serial schedule) and the speculation
// counters.
func workerNormalized(st Stats) Stats {
	st.PassTimes = nil
	st.ComplCacheHits, st.ComplCacheMisses = 0, 0
	st.SpeculatedTrials, st.DiscardedPlans = 0, 0
	return st
}

// TestTrialCacheSecondRunHitRate drives the cross-run sharing mode: a
// TrialCache populated by one run serves the bulk of an identical second
// run's trials. This is the controlled form of the ≥30% second-pass
// hit-rate acceptance bar (cmd/experiments reports the same counters).
func TestTrialCacheSecondRunHitRate(t *testing.T) {
	r := rand.New(rand.NewSource(1357))
	base := randomDAG(r, 5, 10)
	tc := NewTrialCache()
	opt := Options{Config: Extended, POS: true, TrialCache: tc, MaxPasses: 1}

	first := base.Clone()
	st1 := Substitute(first, opt)
	if st1.CacheMisses == 0 {
		t.Fatal("first run recorded no cache misses — nothing was memoized")
	}
	if tc.Len() == 0 {
		t.Fatal("first run stored no entries")
	}

	second := base.Clone()
	st2 := Substitute(second, opt)
	if got := st2.CacheHitRate(); got < 0.30 {
		t.Errorf("second identical run hit rate = %.2f (hits %d, misses %d), want >= 0.30",
			got, st2.CacheHits, st2.CacheMisses)
	}
	if a, b := blif.ToString(first), blif.ToString(second); a != b {
		t.Error("cache-served second run committed a different network than the first")
	}
}

// TestTrialCacheAuditCatchesCorruption proves Options.Audit is a real
// tripwire: a deliberately corrupted cache entry (a stale gain, exactly
// what a missed invalidation would produce) is caught on the next hit with
// a "trial cache audit" panic instead of silently committing a wrong plan.
// The panic must reach the caller the same way at every worker count: from
// the inline path at Workers 1 and from the worker pool's goroutines (phase
// B members, wave slots) above it, with an identical message — the pool
// re-raises the lowest-index panic, so which trial trips the audit does not
// depend on worker interleaving.
func TestTrialCacheAuditCatchesCorruption(t *testing.T) {
	msgs := map[int]string{}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			msgs[w] = auditCorruptionPanic(t, w)
		})
	}
	for w, msg := range msgs {
		if msg != msgs[1] {
			t.Errorf("Workers %d panic %q differs from Workers 1 panic %q", w, msg, msgs[1])
		}
	}
}

// auditCorruptionPanic populates a trial cache, corrupts its positive
// entries, and returns the audit panic message of the next run at the given
// worker count.
func auditCorruptionPanic(t *testing.T, workers int) (msg string) {
	r := rand.New(rand.NewSource(2468))
	base := randomDAG(r, 5, 10)
	tc := NewTrialCache()
	opt := Options{Config: Extended, POS: true, TrialCache: tc, MaxPasses: 1, Workers: workers}
	if st := Substitute(base.Clone(), opt); st.CacheMisses == 0 {
		t.Fatal("populating run recorded no trials")
	}

	// Corrupt every positive entry's gain — the replayed plan can no longer
	// match a fresh trial.
	corrupted := 0
	for i := range tc.shards {
		s := &tc.shards[i]
		for _, e := range s.m {
			if e.ok {
				e.gain += 1000
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Skip("no positive entries to corrupt on this seed")
	}

	opt.Audit = true
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("corrupted cache entry was replayed without tripping the audit")
		}
		var ok bool
		msg, ok = rec.(string)
		if !ok || !strings.Contains(msg, "trial cache audit") {
			t.Fatalf("unexpected panic: %v", rec)
		}
	}()
	Substitute(base.Clone(), opt)
	return ""
}

// TestTrialCacheAuditFingerprintCollision drives the structural-fingerprint
// collision check: an entry whose stored cone fingerprint disagrees with the
// current cones (exactly what a 128-bit key collision looks like from the
// inside) must degrade to a real trial and be counted in CacheCollisions —
// not replayed, and not treated as corruption (no audit panic).
func TestTrialCacheAuditFingerprintCollision(t *testing.T) {
	r := rand.New(rand.NewSource(8642))
	base := randomDAG(r, 5, 10)
	tc := NewTrialCache()
	opt := Options{Config: Extended, POS: true, TrialCache: tc, MaxPasses: 1, Audit: true}
	if st := Substitute(base.Clone(), opt); st.CacheMisses == 0 {
		t.Fatal("populating run recorded no trials")
	}

	// Flip every stored fingerprint: from the next run's viewpoint each key
	// now maps to an entry proven on a structurally different cone pair.
	poisoned := 0
	for i := range tc.shards {
		s := &tc.shards[i]
		for _, e := range s.m {
			if !e.hasFing {
				t.Fatal("audit-mode store left an entry without a fingerprint")
			}
			e.fing[0][0] ^= 1
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatal("populating run stored no entries")
	}

	second := base.Clone()
	st := Substitute(second, opt)
	if st.CacheCollisions == 0 {
		t.Error("poisoned fingerprints produced no recorded collisions")
	}
	if st.CacheHits != 0 {
		t.Errorf("poisoned entries were still replayed: %d hits", st.CacheHits)
	}

	// Collisions must cost nothing but the replays: the committed result is
	// byte-identical to a cache-free run.
	off := base.Clone()
	optOff := opt
	optOff.TrialCache, optOff.NoTrialCache = nil, true
	Substitute(off, optOff)
	if a, b := blif.ToString(second), blif.ToString(off); a != b {
		t.Error("collision fallback committed a different network than the uncached run")
	}
}

// TestTrialCacheKeyStability: the fingerprint separates what must be
// separated (dividend, divisor, form, config) and ignores nothing that
// steers a trial.
func TestTrialCacheKeyStability(t *testing.T) {
	nw := gainNetwork()
	ct := nw.EnableCones()
	defer nw.DisableCones()
	names := nw.SortedNodeNames()
	if len(names) < 2 {
		t.Fatal("gainNetwork too small")
	}
	f, d := names[0], names[1]
	opt := Options{Config: Basic}
	k1, ok := trialCacheKey(ct, f, candidate{name: d}, opt)
	if !ok {
		t.Fatal("no key for clean table")
	}
	if k2, _ := trialCacheKey(ct, f, candidate{name: d}, opt); k2 != k1 {
		t.Error("same trial produced different keys")
	}
	if k2, _ := trialCacheKey(ct, f, candidate{name: d, neg: true}, opt); k2 == k1 {
		t.Error("complement-phase form shares the plain form's key")
	}
	if k2, _ := trialCacheKey(ct, f, candidate{name: d}, Options{Config: Extended}); k2 == k1 {
		t.Error("different Config shares the key")
	}
	if k2, _ := trialCacheKey(ct, d, candidate{name: f}, opt); k2 == k1 {
		t.Error("swapped dividend/divisor shares the key")
	}
	if _, ok := trialCacheKey(nil, f, candidate{name: d}, opt); ok {
		t.Error("nil cone table produced a key")
	}
}
