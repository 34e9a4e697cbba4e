package core

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/blif"
)

// TestSubstituteBatchScaleRace drives the batch scheduler over a large
// cone-forest circuit regenerated in-process from the committed recipe
// (shape=cone, seed=1 — the same recipe BenchmarkSubstituteScale uses, so
// nothing large is checked in) and asserts the committed BLIF is
// byte-identical across worker counts and across batch on/off. ci.sh runs it
// under -race with BDS_SCALE_RACE=1, which is the point: Phase B speculation
// is the only concurrent part of the engine, and a small randomDAG doesn't
// produce enough in-flight members to exercise the claim/evict windows the
// way a 100k-gate circuit does.
//
// The test skips unless BDS_SCALE_RACE is set because a race-instrumented
// run at full size takes minutes — far over the plain `go test ./...` budget.
// BDS_SCALE_GATES overrides the circuit size (ci.sh uses the full 100000).
func TestSubstituteBatchScaleRace(t *testing.T) {
	if os.Getenv("BDS_SCALE_RACE") == "" {
		t.Skip("set BDS_SCALE_RACE=1 (and optionally BDS_SCALE_GATES) to run the large-circuit race/identity check; ci.sh does")
	}
	gates := 100_000
	if s := os.Getenv("BDS_SCALE_GATES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad BDS_SCALE_GATES %q: %v", s, err)
		}
		gates = v
	}
	base, err := bench.Generate("cone", gates, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		// The scale-tier recipe from BenchmarkSubstituteScale: per-trial cost
		// stays size-independent so the run is dominated by scheduling, which
		// is what the race detector needs to see.
		Config:           Basic,
		WindowDepth:      3,
		MaxPasses:        1,
		MaxDivisorTrials: 8,
	}

	// The no-batch legs run the serial driver, whose per-commit cache
	// refresh is O(V) — quadratic over a full pass, which is exactly the
	// wall the batch scheduler amortizes. At 100k gates under -race those
	// legs would take hours, so they only run at small sizes here;
	// batch-vs-serial byte-identity at suite scale is separately enforced
	// by the overlay/trial-cache invariant matrices `go test -race
	// ./internal/core` always runs.
	batchModes := []bool{false}
	if gates <= 20_000 {
		batchModes = append(batchModes, true)
	}

	var want string
	for _, noBatch := range batchModes {
		for _, workers := range []int{1, 4, 8} {
			nw := base.Clone()
			o := opt
			o.NoBatch = noBatch
			o.Workers = workers
			st := Substitute(nw, o)
			got := blif.ToString(nw)
			label := "batch"
			if noBatch {
				label = "nobatch"
			}
			if want == "" {
				want = got
				t.Logf("%s/w%d reference: %d substitutions, %d batch commits", label, workers, st.Substitutions, st.BatchCommits)
				continue
			}
			if got != want {
				t.Fatalf("%s/w%d: committed BLIF diverged from batch/w1 reference (%d substitutions, %d batch commits)",
					label, workers, st.Substitutions, st.BatchCommits)
			}
		}
	}
}
