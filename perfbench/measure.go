package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// A run builds its inputs at least minSetupReps times and for at least
// minSetupTime; setup_s is the median build time.
const (
	minSetupReps = 5
	minSetupTime = 250 * time.Millisecond
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"flow_s", "s"},
	{"opt_s", "s"},
	{"lits_out", "lits"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1). Times are self
// times from the spans; shares are self time over flow time. peak_rss_mb is
// here rather than end to end: at the flow's 12-20 MB the process
// high-water mark follows GC pacing more than the work done.
var perLayer = []metricDef{
	{"blif.parse_s", "s"},
	{"blif.write_s", "s"},
	{"network.clone_s", "s"},
	{"script.self_s", "s"},
	{"script.nodes_after", "count"},
	{"core.substitute_s", "s"},
	{"core.pass1_s", "s"},
	{"core.pass2_s", "s"},
	{"core.trials", "count"},
	{"core.subs", "count"},
	{"core.trial_yield", "ratio"},
	{"core.sigfilter_reject_ratio", "ratio"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.spec_trials", "count"},
	{"core.batch_commits", "count"},
	{"core.evictions", "count"},
	{"core.discard_ratio", "ratio"},
	{"verify.s", "s"},
	{"verify.sat_circuits", "count"},
	{"blif.share", "ratio"},
	{"script.share", "ratio"},
	{"core.share", "ratio"},
	{"verify.share", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"failed_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is printed just before the result: what was run, on which inputs,
// and how many samples each median has.
type info struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	InputDigest    string             `json:"input_digest"`
	Circuits       int                `json:"circuits"`
	FlowSamples    int                `json:"flow_samples"`
	TracedSamples  int                `json:"traced_samples,omitempty"`
	SelfTimeShares map[string]float64 `json:"self_time_shares,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
	Failures       []string           `json:"failures,omitempty"`
}

// measure sets up w's inputs for seed, then runs the flow over them for
// about seconds. Untraced, it reports the end-to-end metrics. Traced, it
// alternates untraced and traced iterations, adds one Workers=1 iteration
// whose output must match byte for byte, writes the spans, and reports the
// per-layer metrics.
func measure(w workload, seed int64, seconds int, traced bool) (info, result, error) {
	cs, setup, err := setupInputs(w, seed)
	if err != nil {
		return info{}, result{}, err
	}
	inf := info{Workload: w.name, Seed: seed, InputDigest: digest(cs), Circuits: len(cs)}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)

	var plain, withSpans []iteration
	var tr *tracer
	var w1 *iteration
	if traced {
		tr = newTracer()
	}
	for len(plain) == 0 || time.Now().Before(deadline) {
		plain = append(plain, runIteration(cs, w, 0, nil, 0))
		if traced {
			withSpans = append(withSpans, runIteration(cs, w, 0, tr, len(withSpans)*len(cs)+1))
		}
	}
	if traced {
		it := runIteration(cs, w, 1, nil, 0)
		w1 = &it
	}
	inf.FlowSamples, inf.TracedSamples = len(plain), len(withSpans)

	failed := checkRuns(cs, append(plain, withSpans...), w1, seed)
	res := result{Attempted: len(cs), Metrics: make(map[string]metric)}
	for i, err := range failed {
		if err != nil {
			res.Failed++
			inf.Failures = append(inf.Failures, fmt.Sprintf("%s: %v", cs[i].name, err))
		}
	}
	res.Correct = res.Failed == 0

	var vals map[string]float64
	if traced {
		vals, inf.SelfTimeShares = layerValues(plain, withSpans)
		vals["failed_frac"] = float64(res.Failed) / float64(res.Attempted)
		vals["peak_rss_mb"] = peakRSS()
		inf.TraceFile = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(inf.TraceFile), 0o755); err != nil {
			return info{}, result{}, err
		}
		if err := writeSpans(inf.TraceFile, inf, tr.spans); err != nil {
			return info{}, result{}, err
		}
	} else {
		vals = endToEndValues(plain)
		vals["setup_s"] = setup.Seconds()
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return info{}, result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return inf, res, nil
}

// setupInputs builds the inputs repeatedly and returns them with the median
// build time. Every build must give the same inputs.
func setupInputs(w workload, seed int64) ([]circuit, time.Duration, error) {
	var cs []circuit
	var first string
	var times []float64
	for begin := time.Now(); len(times) < minSetupReps || time.Since(begin) < minSetupTime; {
		start := time.Now()
		next, err := makeInputs(w, seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if d := digest(next); first == "" {
			first = d
		} else if d != first {
			return nil, 0, fmt.Errorf("input generation is not deterministic")
		}
		cs = next
	}
	return cs, time.Duration(median(times) * float64(time.Second)), nil
}

// checkRuns returns, per circuit, why it failed (nil when it passed): an
// error in any iteration, outputs that differ between iterations or from
// the Workers=1 iteration, or the independent checker's disagreement.
func checkRuns(cs []circuit, its []iteration, w1 *iteration, seed int64) []error {
	out := make([]error, len(cs))
	for i, c := range cs {
		first := its[0].runs[i].out
		for _, it := range its {
			if err := it.runs[i].err; err != nil {
				out[i] = err
				break
			}
			if !bytes.Equal(it.runs[i].out, first) {
				out[i] = fmt.Errorf("output differs between iterations")
				break
			}
		}
		if out[i] != nil {
			continue
		}
		if w1 != nil {
			if err := w1.runs[i].err; err != nil {
				out[i] = fmt.Errorf("Workers=1: %w", err)
				continue
			}
			if !bytes.Equal(w1.runs[i].out, first) {
				out[i] = fmt.Errorf("Workers=1 output differs from the default-worker output")
				continue
			}
		}
		if err := checkEquivalent(string(c.blif), string(first), seed); err != nil {
			out[i] = fmt.Errorf("independent check: %w", err)
		}
	}
	return out
}

func endToEndValues(its []iteration) map[string]float64 {
	var flow, opt, alloc []float64
	for _, it := range its {
		flow = append(flow, it.flow.Seconds())
		opt = append(opt, it.opt.Seconds())
		alloc = append(alloc, float64(it.alloc)/1e6)
	}
	lits := 0
	for _, r := range its[0].runs {
		lits += r.lits
	}
	return map[string]float64{
		"flow_s":   median(flow),
		"opt_s":    median(opt),
		"lits_out": float64(lits),
		"alloc_mb": median(alloc),
	}
}

// peakRSS is the process's resident-set high-water mark in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6
}

// layerValues computes the per-layer metrics: span self times as medians
// over the traced iterations, counters from the first traced iteration, and
// the tracing overhead against the untraced iterations of the same run. It
// also returns each layer's share of the flow's self time.
func layerValues(plain, traced []iteration) (map[string]float64, map[string]float64) {
	self := make(map[string][]float64)
	var pass1, pass2, flow []float64
	for _, it := range traced {
		for name, d := range selfTimes(it.spans) {
			self[name] = append(self[name], d.Seconds())
		}
		var p1, p2 time.Duration
		for _, r := range it.runs {
			p1 += r.passes[0]
			p2 += r.passes[1]
		}
		pass1 = append(pass1, p1.Seconds())
		pass2 = append(pass2, p2.Seconds())
		flow = append(flow, it.flow.Seconds())
	}
	med := make(map[string]float64)
	total := 0.0
	for name, xs := range self {
		med[name] = median(xs)
		total += med[name]
	}
	shares := make(map[string]float64)
	for name, v := range med {
		shares[name] = v / total
	}

	var trials, subs, rej, pass, hits, misses, spec, commits, evict, discard, nodes, sat int
	for _, r := range traced[0].runs {
		st := r.stats
		trials += st.DivisorTrials
		subs += st.Substitutions
		rej += st.SigFilterReject
		pass += st.SigFilterPass
		hits += st.CacheHits
		misses += st.CacheMisses
		spec += st.SpeculatedTrials
		commits += st.BatchCommits
		evict += st.ConflictEvictions
		discard += st.DiscardedPlans
		nodes += r.nodesAfter
		if r.sat {
			sat++
		}
	}
	var plainFlow []float64
	for _, it := range plain {
		plainFlow = append(plainFlow, it.flow.Seconds())
	}
	vals := map[string]float64{
		"blif.parse_s":                med["blif.parse"],
		"blif.write_s":                med["blif.write"],
		"network.clone_s":             med["network.clone"],
		"script.self_s":               med["script"],
		"script.nodes_after":          float64(nodes),
		"core.substitute_s":           med["core.substitute"],
		"core.pass1_s":                median(pass1),
		"core.pass2_s":                median(pass2),
		"core.trials":                 float64(trials),
		"core.subs":                   float64(subs),
		"core.trial_yield":            ratio(subs, trials),
		"core.sigfilter_reject_ratio": ratio(rej, rej+pass),
		"core.cache_hit_ratio":        ratio(hits, hits+misses),
		"core.spec_trials":            float64(spec),
		"core.batch_commits":          float64(commits),
		"core.evictions":              float64(evict),
		"core.discard_ratio":          ratio(discard, spec),
		"verify.s":                    med["verify"],
		"verify.sat_circuits":         float64(sat),
		"blif.share":                  shares["blif.parse"] + shares["blif.write"],
		"script.share":                shares["script"],
		"core.share":                  shares["core.substitute"],
		"verify.share":                shares["verify"],
		"trace.overhead_frac":         median(flow)/median(plainFlow) - 1,
	}
	return vals, shares
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
