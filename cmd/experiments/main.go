// Command experiments regenerates the paper's experimental tables (II–V):
// factored-form literal counts and CPU times for SIS-style algebraic
// resubstitution versus the three RAR-based Boolean substitution
// configurations, over the benchmark suite.
//
// Usage:
//
//	experiments [-table N] [-circuits a,b,c] [-algs sis,ext] [-list] [-j N] [-v] [-json] [-nosigfilter] [-nocache] [-passes N]
//
// With no flags all four tables run over the whole suite. -j bounds the
// substitution engine's planner worker pool (results are bit-identical at
// any value); -v additionally prints the engine's observability counters,
// including the simulation-signature prefilter's reject/false-pass rates and
// the trial memoization cache's hit rate; -nosigfilter disables the
// prefilter (identical literal counts, more exact division trials);
// -nocache disables trial memoization (identical literal counts, every
// trial runs for real); -passes N runs each table N times over one shared
// trial cache, so `-v -passes 2` shows the cache's cross-pass hit rate on
// an unchanged suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/exp"
)

func main() {
	table := flag.Int("table", 0, "table to reproduce (2-5); 0 = all")
	circuits := flag.String("circuits", "", "comma-separated benchmark subset (default: all)")
	algs := flag.String("algs", "", "comma-separated algorithm subset (default: "+strings.Join(exp.Algorithms, ",")+")")
	list := flag.Bool("list", false, "list benchmark names and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of tables")
	workers := flag.Int("j", 0, "RAR substitution planner workers (0 = GOMAXPROCS; SIS resub runs serially); results identical at any value")
	verbose := flag.Bool("v", false, "print substitution engine counters (trials, filter rejections, cache hits, pass times)")
	noSigFilter := flag.Bool("nosigfilter", false, "disable the simulation-signature divisor prefilter (identical results, more trials)")
	noCache := flag.Bool("nocache", false, "disable the trial memoization cache (identical results, every trial runs for real)")
	passes := flag.Int("passes", 1, "run each table N times sharing one trial cache across passes (identical results every pass; -v shows per-pass hit rates)")
	prof := cliutil.ProfileFlags()
	flag.Parse()
	if *passes < 1 {
		fmt.Fprintln(os.Stderr, "experiments: -passes must be >= 1")
		os.Exit(2)
	}
	*workers = cliutil.ClampWorkers(*workers, os.Stderr)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer prof.StopAndReport("experiments", os.Stderr)

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	var names []string
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}
	var algNames []string
	if *algs != "" {
		algNames = strings.Split(*algs, ",")
	}
	tables := []int{2, 3, 4, 5}
	if *table != 0 {
		if *table < 2 || *table > 6 {
			fmt.Fprintln(os.Stderr, "experiments: -table must be 2-5 (paper) or 6 (extension: script.boolean)")
			os.Exit(2)
		}
		tables = []int{*table}
	}
	ok := true
	var results []exp.Table
	for _, t := range tables {
		// With -passes N the table runs N times over one shared trial
		// cache: the first pass populates it, later passes replay stored
		// verdicts (the cross-pass scenario the cache exists for). Every
		// pass produces identical literal counts; only the final pass is
		// printed as the table, with per-pass counters under -v.
		var tc *core.TrialCache
		if *passes > 1 && !*noCache {
			tc = core.NewTrialCache()
		}
		for p := 1; p <= *passes; p++ {
			res, err := exp.RunWith(t, names, exp.RunOptions{
				Workers:      *workers,
				Algorithms:   algNames,
				NoSigFilter:  *noSigFilter,
				NoTrialCache: *noCache,
				TrialCache:   tc,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				flag.Usage()
				os.Exit(2)
			}
			if !res.AllEquivalent() {
				ok = false
			}
			if p < *passes {
				if *verbose {
					fmt.Printf("— suite pass %d/%d —\n", p, *passes)
					res.PrintStats(os.Stdout)
					fmt.Println()
				}
				continue
			}
			if *asJSON {
				results = append(results, res)
			} else {
				res.Print(os.Stdout)
				fmt.Println()
				if *verbose {
					if *passes > 1 {
						fmt.Printf("— suite pass %d/%d —\n", p, *passes)
					}
					res.PrintStats(os.Stdout)
					fmt.Println()
				}
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "experiments: equivalence check FAILED for at least one cell")
		os.Exit(1)
	}
}
