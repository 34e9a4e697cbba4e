package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/blif"
	"repro/internal/network"
	"repro/internal/verify"
)

// substituteBothWays runs Substitute at Workers 1, 2 and 8, with batch
// scheduling on and off, on clones of base. It asserts the committed
// networks are byte-identical (BLIF-serialized) across all six runs and,
// within one batch mode, the statistics equal up to workerNormalized.
// Returns the serial batch-on result for further checks.
func substituteBothWays(t *testing.T, base *network.Network, opt Options, label string) *network.Network {
	t.Helper()
	var want *network.Network
	for _, noBatch := range []bool{false, true} {
		var wantSt Stats
		for _, workers := range []int{1, 2, 8} {
			o := opt
			o.Workers, o.NoBatch = workers, noBatch
			nw := base.Clone()
			st := workerNormalized(Substitute(nw, o))
			if want == nil {
				want = nw
			} else if a, b := blif.ToString(want), blif.ToString(nw); a != b {
				t.Fatalf("%s: Workers=%d batch=%v diverged from Workers=1 batch=true\nwant:\n%s\ngot (stats %+v):\n%s",
					label, workers, !noBatch, a, st, b)
			}
			if workers == 1 {
				wantSt = st
			} else if !reflect.DeepEqual(st, wantSt) {
				t.Errorf("%s: batch=%v stats at Workers=%d diverged beyond the worker-variant counters:\nserial   %+v\nparallel %+v",
					label, !noBatch, workers, wantSt, st)
			}
		}
	}
	return want
}

// workerNormalized zeroes the Stats fields allowed to differ across worker
// counts: wall time and the speculation counters.
func workerNormalized(st Stats) Stats {
	st.PassTimes = nil
	st.SpeculatedTrials, st.DiscardedPlans = 0, 0
	return st
}

func TestSubstituteParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			got := substituteBothWays(t, base, Options{Config: cfg, POS: true, Pool: true}, "rand")
			if !verify.Equivalent(base, got) {
				t.Fatalf("trial %d cfg %v: equivalence broken", trial, cfg)
			}
		}
	}
	// Three-pass runs under Audit: every commit is Check-audited and every
	// overlay trial re-run on the clone path.
	r = rand.New(rand.NewSource(97531))
	for trial := 0; trial < 4; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			substituteBothWays(t, base, Options{Config: cfg, POS: true, Pool: true, MaxPasses: 3, Audit: true}, "audit")
		}
	}
	substituteBothWays(t, gainNetwork(), Options{Config: Basic, POS: true, Pool: true, MaxPasses: 3, Audit: true}, "gain-audit")
}

func TestSubstituteParallelMatchesSerialVariants(t *testing.T) {
	// Option corners where the reducer schedule differs from the plain
	// first-positive walk: best-gain acceptance, depth-budget rejection
	// (commit-undo inside a wave), and windowed trials.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		base := randomDAG(r, 4, 7)
		_, depth := base.Levels()
		substituteBothWays(t, base, Options{Config: Extended, POS: true, BestGain: true}, "bestgain")
		substituteBothWays(t, base, Options{Config: Extended, POS: true, DepthBudget: depth}, "depthbudget")
		substituteBothWays(t, base, Options{Config: Extended, POS: true, WindowDepth: 2}, "window")
	}
	substituteBothWays(t, gainNetwork(), Options{Config: Basic}, "gain")
}

func TestStatsAccumulate(t *testing.T) {
	var acc Stats
	acc.Accumulate(Stats{LitsBefore: 10, LitsAfter: 8, Substitutions: 2, Passes: 1, DivisorTrials: 5})
	acc.Accumulate(Stats{LitsBefore: 8, LitsAfter: 7, Substitutions: 1, Passes: 2, DivisorTrials: 3})
	if acc.LitsBefore != 10 || acc.LitsAfter != 7 {
		t.Errorf("literal tracking wrong: %+v", acc)
	}
	if acc.Substitutions != 3 || acc.Passes != 3 || acc.DivisorTrials != 8 {
		t.Errorf("counter sums wrong: %+v", acc)
	}
}

// TestStatsAccumulateAssociative: folding (a then b) then c equals folding a
// then (b accumulated with c) — the property that lets a multi-call flow
// (script.ResubRARWith across passes, the experiment harness across cells)
// merge stats in any grouping. Exercised with every live counter populated.
func TestStatsAccumulateAssociative(t *testing.T) {
	mk := func(k int) Stats {
		return Stats{
			Substitutions:     k,
			POSSubstitutions:  2 * k,
			Decompositions:    3 * k,
			WiresRemoved:      4 * k,
			LitsBefore:        100 + k,
			LitsAfter:         90 + k,
			DivisorTrials:     5 * k,
			DepthRejected:     9 * k,
			SigCacheHits:      10 * k,
			SigCacheMisses:    11 * k,
			ComplCacheHits:    15 * k,
			ComplCacheMisses:  16 * k,
			SpeculatedTrials:  17 * k,
			DiscardedPlans:    18 * k,
			BatchCommits:      19 * k,
			ConflictEvictions: 20 * k,
			Passes:            k,
			PassTimes:         []time.Duration{time.Duration(k) * time.Millisecond},
		}
	}
	a, b, c := mk(1), mk(2), mk(3)

	var left Stats
	left.Accumulate(a)
	left.Accumulate(b)
	left.Accumulate(c)

	bc := b
	bc.Accumulate(c)
	var right Stats
	right.Accumulate(a)
	right.Accumulate(bc)

	if !reflect.DeepEqual(left, right) {
		t.Errorf("Accumulate is not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", left, right)
	}
	if left.DivisorTrials != 5*6 || left.ConflictEvictions != 20*6 {
		t.Errorf("counters not summed: %+v", left)
	}
}

func TestSubstituteObservabilityCounters(t *testing.T) {
	nw := gainNetwork()
	st := Substitute(nw, Options{Config: Basic})
	if st.Passes == 0 || len(st.PassTimes) != st.Passes {
		t.Errorf("pass accounting wrong: %+v", st)
	}
	if st.DivisorTrials == 0 {
		t.Errorf("no divisor trials recorded: %+v", st)
	}
	if st.SigCacheHits+st.SigCacheMisses == 0 {
		t.Errorf("no signature cache traffic recorded: %+v", st)
	}
	if st.SigFilterReject+st.SigFilterPass+st.CacheHits+st.CacheMisses != 0 {
		t.Errorf("deprecated counters must stay 0: %+v", st)
	}
}

// TestPoolReraisesLowestPanic pins the worker pool's panic contract: every
// task panic is recovered (inline at one worker, inside the goroutines
// above it), and after the pool drains the panic with the lowest task index
// is re-raised on the caller with its (dividend, divisor) attribution — the
// same message at every worker count.
func TestPoolReraisesLowestPanic(t *testing.T) {
	const want = "core: worker panic f=f3 d=d3: boom 3"
	for _, w := range []int{1, 2, 4} {
		got := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			ev := newEvaluator(w)
			ev.pool(network.New("t"), 8, func(_ *scratch, i int) {
				if i == 3 || i == 5 || i == 6 {
					panic(fmt.Sprintf("boom %d", i))
				}
			}, func(i int) (string, string) {
				return fmt.Sprintf("f%d", i), fmt.Sprintf("d%d", i)
			})
			return ""
		}()
		if got != want {
			t.Errorf("workers %d: panic %q, want %q", w, got, want)
		}
	}
}
