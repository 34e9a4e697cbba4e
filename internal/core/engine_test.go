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

// substituteBothWays runs Substitute serially and with an 8-worker pool on
// clones of base and asserts the committed networks are byte-identical
// (BLIF-serialized) and the statistics equal up to workerNormalized.
// Returns the serial result for further checks.
func substituteBothWays(t *testing.T, base *network.Network, opt Options, label string) *network.Network {
	t.Helper()
	serial := base.Clone()
	optSerial := opt
	optSerial.Workers = 1
	stS := Substitute(serial, optSerial)
	par := base.Clone()
	optPar := opt
	optPar.Workers = 8
	stP := Substitute(par, optPar)
	if a, b := blif.ToString(serial), blif.ToString(par); a != b {
		t.Fatalf("%s: Workers=8 diverged from Workers=1\nserial (stats %+v):\n%s\nparallel (stats %+v):\n%s",
			label, stS, a, stP, b)
	}
	if a, b := workerNormalized(stS), workerNormalized(stP); !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats diverged beyond the worker-variant counters:\nserial   %+v\nparallel %+v", label, a, b)
	}
	return serial
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
// merge stats in any grouping. Exercised with every counter populated,
// including the trial-cache fields this property must extend to.
func TestStatsAccumulateAssociative(t *testing.T) {
	mk := func(k int) Stats {
		return Stats{
			Substitutions:      k,
			POSSubstitutions:   2 * k,
			Decompositions:     3 * k,
			WiresRemoved:       4 * k,
			LitsBefore:         100 + k,
			LitsAfter:          90 + k,
			DivisorTrials:      5 * k,
			SigFilterReject:    6 * k,
			SigFilterPass:      7 * k,
			SigFilterFalsePass: 8 * k,
			DepthRejected:      9 * k,
			SigCacheHits:       10 * k,
			SigCacheMisses:     11 * k,
			CacheHits:          12 * k,
			CacheMisses:        13 * k,
			CacheInvalidated:   14 * k,
			ComplCacheHits:     15 * k,
			ComplCacheMisses:   16 * k,
			SpeculatedTrials:   17 * k,
			DiscardedPlans:     18 * k,
			BatchCommits:       19 * k,
			ConflictEvictions:  20 * k,
			Passes:             k,
			PassTimes:          []time.Duration{time.Duration(k) * time.Millisecond},
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
	if left.CacheHits != 12*6 || left.CacheMisses != 13*6 || left.CacheInvalidated != 14*6 {
		t.Errorf("cache counters not summed: %+v", left)
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
