// Command bdsopt is the optimizer CLI: it reads a combinational BLIF
// circuit, runs a preparation script and/or a substitution algorithm, and
// writes the optimized BLIF with literal statistics.
//
// Usage:
//
//	bdsopt [-script A|B|C|algebraic|none] [-alg sis|basic|ext|extgdc|none]
//	       [-j N] [-nocache] [-o out.blif] [-verify] [in.blif]
//
// With no input file a benchmark name from the embedded suite may be given
// via -bench. Examples:
//
//	bdsopt -bench csel8 -script A -alg extgdc -verify
//	bdsopt -script A -alg ext -o out.blif circuit.blif
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
	"repro/internal/verify"
)

func main() {
	scriptName := flag.String("script", "none", "preparation script: A, B, C, algebraic or none")
	alg := flag.String("alg", "none", "substitution algorithm: sis, basic, ext, extgdc or none")
	out := flag.String("o", "", "output BLIF path (default: stdout, suppressed with -q)")
	benchName := flag.String("bench", "", "use an embedded benchmark instead of an input file")
	doVerify := flag.Bool("verify", false, "equivalence-check the result against the input")
	quiet := flag.Bool("q", false, "suppress BLIF output, print statistics only")
	redund := flag.Bool("redund", false, "finish with whole-network redundancy removal")
	workers := flag.Int("j", 0, "RAR substitution planner workers (0 = GOMAXPROCS; SIS resub runs serially); results identical at any value")
	noCache := flag.Bool("nocache", false, "disable the trial memoization cache (identical results, every trial runs for real)")
	prof := cliutil.ProfileFlags()
	flag.Parse()
	*workers = cliutil.ClampWorkers(*workers, os.Stderr)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bdsopt:", err)
		os.Exit(1)
	}
	defer prof.StopAndReport("bdsopt", os.Stderr)

	nw, err := load(*benchName, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bdsopt:", err)
		os.Exit(1)
	}
	ref := nw.Clone()
	fmt.Fprintf(os.Stderr, "in:  %d nodes, %d lits (sop), %d lits (fac)\n",
		nw.NumNodes(), nw.SOPLits(), nw.FactoredLits())

	resub := resubFor(*alg, *workers, *noCache)
	switch *scriptName {
	case "A":
		script.A(nw)
	case "B":
		script.B(nw)
	case "C":
		script.C(nw)
	case "algebraic":
		if resub == nil {
			resub = func(*network.Network) {}
		}
		script.Algebraic(nw, resub)
		resub = nil // already applied inside the flow
	case "none":
	default:
		fmt.Fprintln(os.Stderr, "bdsopt: unknown script", *scriptName)
		os.Exit(2)
	}
	if resub != nil {
		resub(nw)
	}
	if *redund {
		n := opt.RemoveRedundancies(nw, 1)
		fmt.Fprintf(os.Stderr, "redundancy removal: %d wires\n", n)
	}

	fmt.Fprintf(os.Stderr, "out: %d nodes, %d lits (sop), %d lits (fac)\n",
		nw.NumNodes(), nw.SOPLits(), nw.FactoredLits())

	if *doVerify {
		if verify.Equivalent(ref, nw) {
			fmt.Fprintln(os.Stderr, "verify: equivalent")
		} else {
			fmt.Fprintln(os.Stderr, "verify: NOT EQUIVALENT")
			os.Exit(1)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bdsopt:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := blif.Write(f, nw); err != nil {
			fmt.Fprintln(os.Stderr, "bdsopt:", err)
			os.Exit(1)
		}
	} else if !*quiet {
		_ = blif.Write(os.Stdout, nw)
	}
}

func load(benchName, path string) (*network.Network, error) {
	if benchName != "" {
		for _, n := range bench.Names() {
			if n == benchName {
				return bench.Get(benchName), nil
			}
		}
		return nil, fmt.Errorf("unknown benchmark %q (see cmd/blifgen -list)", benchName)
	}
	if path == "" {
		return nil, fmt.Errorf("no input: give a BLIF file or -bench name")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return blif.Parse(f)
}

func resubFor(alg string, workers int, noCache bool) script.Resub {
	rar := func(cfg core.Config) script.Resub {
		return script.ResubRARWith(core.Options{Config: cfg, POS: true, Pool: true, Workers: workers, NoTrialCache: noCache}, nil)
	}
	switch alg {
	case "sis":
		return script.ResubSIS
	case "basic":
		return rar(core.Basic)
	case "ext":
		return rar(core.Extended)
	case "extgdc":
		return rar(core.ExtendedGDC)
	case "none":
		return nil
	}
	fmt.Fprintln(os.Stderr, "bdsopt: unknown algorithm", alg)
	os.Exit(2)
	return nil
}
