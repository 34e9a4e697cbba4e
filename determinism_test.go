// Determinism acceptance test for the plan/commit substitution engine:
// core.Substitute must commit a byte-identical network at any worker count.
// Every bench-suite circuit is run through all three configurations with
// Workers=1 and Workers=8 and the results BLIF-compared.
package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/script"
)

// TestSubstituteSigFilterInvariant is the suite-wide result-invisibility
// test of the engine's speed layers. The simulation-signature prefilter it
// was first written for is gone: every candidate divisor is tried for real,
// so the filter and trial-cache counters still kept in Stats must read 0.
// The layers that remain, copy-on-write overlay trials and batched commits,
// may not change what commits: over the bench suite and all three
// configurations, the committed BLIF must be byte-identical to the serial,
// unbatched deep-clone reference run.
func TestSubstituteSigFilterInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite speed-layer sweep skipped in -short mode")
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Basic},
		{"ext", core.Extended},
		{"extgdc", core.ExtendedGDC},
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prepared := bench.Get(name)
			script.Prepare(2, prepared)
			for _, c := range configs {
				run := func(reference bool) string {
					nw := prepared.Clone()
					st := core.Substitute(nw, core.Options{
						Config: c.cfg, POS: true, Pool: true, Workers: 1,
						NoOverlay: reference, NoBatch: reference,
					})
					if n := st.SigFilterReject + st.SigFilterPass + st.CacheHits + st.CacheMisses; n != 0 {
						t.Errorf("%s/%s: filter and cache counters sum to %d, want 0", name, c.name, n)
					}
					return blif.ToString(nw)
				}
				ref := run(true)
				if got := run(false); got != ref {
					t.Errorf("%s/%s: overlay+batch run differs from the clone-path reference\n--- reference ---\n%s\n--- shipped ---\n%s",
						name, c.name, ref, got)
				}
			}
		})
	}
}

func TestSubstituteWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite determinism sweep skipped in -short mode")
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"basic", core.Basic},
		{"ext", core.Extended},
		{"extgdc", core.ExtendedGDC},
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prepared := bench.Get(name)
			script.Prepare(2, prepared)
			for _, c := range configs {
				opt := core.Options{Config: c.cfg, POS: true, Pool: true}
				serial := prepared.Clone()
				opt.Workers = 1
				core.Substitute(serial, opt)
				parallel := prepared.Clone()
				opt.Workers = 8
				core.Substitute(parallel, opt)
				if a, b := blif.ToString(serial), blif.ToString(parallel); a != b {
					t.Errorf("%s/%s: Workers=8 network differs from Workers=1\n--- serial ---\n%s\n--- parallel ---\n%s",
						name, c.name, a, b)
				}
			}
		})
	}
	// A generated cone forest under the shipped ext flow, with Audit on
	// (every commit Check-audited, every overlay trial re-run on the clone
	// path), at Workers 1 and 2 with batching on and off. Seed 1016 is where
	// the removed cross-pass trial cache changed the result: a trial's
	// outcome also reads the dividend's fanout cone, which its key left out
	// (DESIGN.md "Removed layers"). The batch guard's fanout-cone part is
	// pinned by TestEvictGuardCoversFanoutCone in internal/core instead:
	// cone-disjoint claims keep other members' targets out of f's fanout
	// cone, so in a generated forest only a divisor rewrite could reach it.
	t.Run("cone200_s1016", func(t *testing.T) {
		t.Parallel()
		prepared, err := bench.Generate("cone", 200, 0, 1016)
		if err != nil {
			t.Fatal(err)
		}
		script.A(prepared)
		want := ""
		for _, noBatch := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				nw := prepared.Clone()
				st := core.Substitute(nw, core.Options{
					Config: core.Extended, POS: true, Pool: true,
					Workers: workers, NoBatch: noBatch, Audit: true,
				})
				got := blif.ToString(nw)
				if want == "" {
					want = got
					if st.Substitutions != 47 || st.LitsAfter != 207 {
						t.Errorf("committed %d substitutions, %d literals; want 47, 207", st.Substitutions, st.LitsAfter)
					}
				} else if got != want {
					t.Fatalf("workers %d batch=%v: network differs from workers 1 batch=true\n--- want ---\n%s\n--- got ---\n%s",
						workers, !noBatch, want, got)
				}
			}
		}
	})
}
