// Package exp is the experiment harness that regenerates the paper's
// Tables II–V: per-circuit factored-literal counts and CPU times for the
// SIS algebraic baseline (`resub -d`) and the three RAR configurations
// (basic, ext, ext+GDC), with totals and percentage improvement rows.
// Every run is equivalence-checked against the prepared circuit.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/script"
	"repro/internal/verify"
)

// Algorithms enumerated in table column order.
var Algorithms = []string{"sis", "basic", "ext", "extgdc"}

// AlgorithmLabel maps algorithm keys to the paper's column headers.
var AlgorithmLabel = map[string]string{
	"sis":    "sis resub -d",
	"basic":  "basic",
	"ext":    "ext.",
	"extgdc": "ext. GDC",
}

// Cell is one measurement.
type Cell struct {
	Lits int
	CPU  time.Duration
	// Equivalent records the verification outcome (always expected true).
	Equivalent bool
	// Sub carries the substitution engine's observability counters for the
	// RAR algorithms (nil for the SIS baseline).
	Sub *core.Stats `json:",omitempty"`
}

// RunOptions tune a table reproduction without changing its results.
type RunOptions struct {
	// Workers is threaded to core.Options.Workers for every RAR
	// substitution run (0 = GOMAXPROCS); the SIS baseline runs serially.
	// Literal counts are identical at any value.
	Workers int
	// Algorithms restricts the run to a subset of the table columns
	// (nil = all of exp.Algorithms). Unknown names are rejected by RunWith
	// before any circuit is processed.
	Algorithms []string
	// NoSigFilter disables the simulation-signature divisor prefilter in
	// the substitution engine (threaded to core.Options.NoSigFilter).
	// Results are identical either way; only trial counts change.
	NoSigFilter bool
	// NoTrialCache disables the trial memoization cache (threaded to
	// core.Options.NoTrialCache, the `-nocache` flag). Results are identical
	// either way; only trial costs and the cache counters change.
	NoTrialCache bool
	// TrialCache, when non-nil, is shared by every substitution run of the
	// table (threaded to core.Options.TrialCache) — and, when the caller
	// reuses it, across whole table runs. cmd/experiments' -passes flag
	// uses this to demonstrate cross-pass memoization: on a second pass
	// over an unchanged suite most divisor cones hash to keys the first
	// pass stored, so trials replay instead of re-running. Results are
	// identical with or without it.
	TrialCache *core.TrialCache
}

// algs returns the algorithm set the options select.
func (o RunOptions) algs() []string {
	if len(o.Algorithms) == 0 {
		return Algorithms
	}
	return o.Algorithms
}

// validateAlgs rejects unknown algorithm names with a list of valid ones.
func validateAlgs(algs []string) error {
	for _, alg := range algs {
		if _, ok := rarConfig(alg); !ok && alg != "sis" {
			return fmt.Errorf("exp: unknown algorithm %q (valid: %s)",
				alg, strings.Join(Algorithms, ", "))
		}
	}
	return nil
}

// Row is one benchmark line of a table.
type Row struct {
	Circuit string
	Init    int
	Cells   map[string]Cell
}

// Table is a full reproduction of one of the paper's tables.
type Table struct {
	Number int
	// Algs lists the algorithm columns the table was produced with, in
	// column order (empty = all of exp.Algorithms, for older callers).
	Algs []string `json:",omitempty"`
	Rows []Row
}

// algorithms returns the table's column set.
func (t Table) algorithms() []string {
	if len(t.Algs) == 0 {
		return Algorithms
	}
	return t.Algs
}

// rarConfig maps an algorithm key to its substitution configuration.
func rarConfig(alg string) (core.Config, bool) {
	switch alg {
	case "basic":
		return core.Basic, true
	case "ext":
		return core.Extended, true
	case "extgdc":
		return core.ExtendedGDC, true
	}
	return 0, false
}

// runAlgorithm applies one algorithm to a clone of the prepared circuit.
// An unknown algorithm is an error (callers validate CLI input upfront, so
// this is a backstop, not a panic path).
func runAlgorithm(prepared *network.Network, alg string, o RunOptions) (Cell, error) {
	nw := prepared.Clone()
	var sub *core.Stats
	start := time.Now()
	if cfg, ok := rarConfig(alg); ok {
		st := core.Substitute(nw, core.Options{Config: cfg, POS: true, Pool: true, Workers: o.Workers, NoSigFilter: o.NoSigFilter, NoTrialCache: o.NoTrialCache, TrialCache: o.TrialCache})
		sub = &st
	} else if alg == "sis" {
		script.ResubSIS(nw)
	} else {
		return Cell{}, validateAlgs([]string{alg})
	}
	cpu := time.Since(start)
	return Cell{Lits: nw.FactoredLits(), CPU: cpu, Equivalent: verify.Equivalent(prepared, nw), Sub: sub}, nil
}

// runAlgorithmFullFlow runs a whole flow with the algorithm's resub step
// plugged in: script.algebraic for Table V, the extension script.boolean
// flow for Table VI.
func runAlgorithmFullFlow(raw *network.Network, alg string, table int, o RunOptions) (Cell, error) {
	nw := raw.Clone()
	var resub script.Resub
	var sub *core.Stats
	if cfg, ok := rarConfig(alg); ok {
		sub = &core.Stats{}
		resub = script.ResubRARWith(core.Options{Config: cfg, POS: true, Pool: true, Workers: o.Workers, NoSigFilter: o.NoSigFilter, NoTrialCache: o.NoTrialCache, TrialCache: o.TrialCache}, sub)
	} else if alg == "sis" {
		resub = script.ResubSIS
	} else {
		return Cell{}, validateAlgs([]string{alg})
	}
	start := time.Now()
	if table == 6 {
		script.Boolean(nw, resub)
	} else {
		script.Algebraic(nw, resub)
	}
	cpu := time.Since(start)
	return Cell{Lits: nw.FactoredLits(), CPU: cpu, Equivalent: verify.Equivalent(raw, nw), Sub: sub}, nil
}

// Run reproduces one table (2–5) over the given circuits (nil = whole
// suite). Circuits are processed in parallel (they are independent); the
// row order and all literal counts are deterministic. CPU columns measure
// wall time per algorithm and may inflate slightly under contention.
func Run(table int, circuits []string) Table {
	t, err := RunWith(table, circuits, RunOptions{})
	if err != nil {
		// Unreachable: the default options select only valid algorithms.
		panic(err)
	}
	return t
}

// RunWith is Run with explicit tuning options; the produced literal counts
// are identical for any RunOptions value. An error is returned (before any
// circuit is processed) when Algorithms names an unknown algorithm.
func RunWith(table int, circuits []string, o RunOptions) (Table, error) {
	if err := validateAlgs(o.algs()); err != nil {
		return Table{}, err
	}
	if circuits == nil {
		circuits = bench.Names()
	}
	rows := make([]Row, len(circuits))
	errs := make([]error, len(circuits))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(circuits) {
		workers = len(circuits)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rows[i], errs[i] = runRow(table, circuits[i], o)
			}
		}()
	}
	for i := range circuits {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Table{}, err
		}
	}
	return Table{Number: table, Algs: o.algs(), Rows: rows}, nil
}

// runRow measures one benchmark under every selected algorithm.
func runRow(table int, name string, o RunOptions) (Row, error) {
	raw := bench.Get(name)
	row := Row{Circuit: name, Cells: make(map[string]Cell)}
	var err error
	if table == 5 || table == 6 {
		row.Init = raw.FactoredLits()
		for _, alg := range o.algs() {
			if row.Cells[alg], err = runAlgorithmFullFlow(raw, alg, table, o); err != nil {
				return Row{}, err
			}
		}
		return row, nil
	}
	prepared := raw.Clone()
	script.Prepare(table, prepared)
	row.Init = prepared.FactoredLits()
	for _, alg := range o.algs() {
		if row.Cells[alg], err = runAlgorithm(prepared, alg, o); err != nil {
			return Row{}, err
		}
	}
	return row, nil
}

// Totals sums literal counts per algorithm, plus the initial total.
func (t Table) Totals() (init int, totals map[string]int) {
	totals = make(map[string]int)
	for _, r := range t.Rows {
		init += r.Init
		for _, alg := range t.algorithms() {
			totals[alg] += r.Cells[alg].Lits
		}
	}
	return init, totals
}

// AllEquivalent reports whether every cell passed verification.
func (t Table) AllEquivalent() bool {
	for _, r := range t.Rows {
		for _, alg := range t.algorithms() {
			if !r.Cells[alg].Equivalent {
				return false
			}
		}
	}
	return true
}

// Print renders the table in the paper's layout.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "Table %s — factored-form literals and CPU seconds\n", roman(t.Number))
	fmt.Fprintf(w, "%-10s %7s", "circuit", "init.")
	for _, alg := range t.algorithms() {
		fmt.Fprintf(w, " | %12s %8s", AlgorithmLabel[alg], "cpu")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-10s %7d", r.Circuit, r.Init)
		for _, alg := range t.algorithms() {
			c := r.Cells[alg]
			mark := ""
			if !c.Equivalent {
				mark = "!"
			}
			fmt.Fprintf(w, " | %11d%1s %8.2f", c.Lits, mark, c.CPU.Seconds())
		}
		fmt.Fprintln(w)
	}
	init, totals := t.Totals()
	fmt.Fprintf(w, "%-10s %7d", "total", init)
	for _, alg := range t.algorithms() {
		fmt.Fprintf(w, " | %12d %8s", totals[alg], "")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %7s", "improv.", "")
	for _, alg := range t.algorithms() {
		pct := 0.0
		if init > 0 {
			pct = 100 * float64(init-totals[alg]) / float64(init)
		}
		fmt.Fprintf(w, " | %11.1f%% %8s", pct, "")
	}
	fmt.Fprintln(w)
	if !t.AllEquivalent() {
		fmt.Fprintln(w, "WARNING: cells marked '!' failed equivalence checking")
	}
}

// PrintStats renders the substitution engine's observability counters for
// every RAR cell: divisor trials, depth-budget rejections, cache traffic,
// batch-scheduler speculation (spec/disc/bcmt/evict), and per-pass wall
// times (the `-v` view of cmd/experiments).
func (t Table) PrintStats(w io.Writer) {
	fmt.Fprintf(w, "substitution engine counters (table %s)\n", roman(t.Number))
	fmt.Fprintf(w, "%-10s %-7s %6s %7s %7s %7s %7s %6s %13s %6s %6s %12s %12s %6s %6s %6s %6s  %s\n",
		"circuit", "alg", "subs", "trials", "sigrej", "deprej", "fpass", "fp%",
		"trialcache", "hit%", "inval", "sigcache", "complcache",
		"spec", "disc", "bcmt", "evict", "pass times")
	for _, r := range t.Rows {
		for _, alg := range t.algorithms() {
			s := r.Cells[alg].Sub
			if s == nil {
				continue
			}
			times := ""
			for i, d := range s.PassTimes {
				if i > 0 {
					times += " "
				}
				times += fmt.Sprintf("%.3fs", d.Seconds())
			}
			fmt.Fprintf(w, "%-10s %-7s %6d %7d %7d %7d %7d %5.1f%% %6d/%-6d %5.1f%% %6d %5d/%-6d %5d/%-6d %6d %6d %6d %6d  %s\n",
				r.Circuit, alg, s.Substitutions, s.DivisorTrials, s.SigFilterReject,
				s.DepthRejected, s.SigFilterFalsePass, 100*s.FalsePassRate(),
				s.CacheHits, s.CacheMisses, 100*s.CacheHitRate(), s.CacheInvalidated,
				s.SigCacheHits, s.SigCacheMisses, s.ComplCacheHits, s.ComplCacheMisses,
				s.SpeculatedTrials, s.DiscardedPlans, s.BatchCommits, s.ConflictEvictions, times)
		}
	}
}

func roman(n int) string {
	switch n {
	case 2:
		return "II"
	case 3:
		return "III"
	case 4:
		return "IV"
	case 5:
		return "V"
	case 6:
		return "VI (extension)"
	}
	return fmt.Sprint(n)
}
