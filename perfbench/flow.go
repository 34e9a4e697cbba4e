package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/script"
	"repro/internal/verify"
)

// circuitCap is the wall time one circuit's flow may take before it counts
// as failed.
const circuitCap = 60 * time.Second

// circuitRun is the outcome of the shipped flow on one circuit.
type circuitRun struct {
	out        []byte
	flow, opt  time.Duration
	stats      core.Stats
	passes     [2]time.Duration // first and second pass, summed over Substitute calls
	nodesAfter int              // node count when the script returns
	lits       int              // factored literals of the output
	sat        bool             // verify took the SAT-miter path (too many inputs to enumerate)
	err        error
}

// runCircuit runs what `bdsopt -script <A|algebraic> -alg <cfg> -verify -o`
// runs, through the same public entry points: parse, clone the reference,
// script, substitute, verify, write. Spans go to tr (nil = untraced) under
// trace ID id. A panic on this goroutine is returned as the run's error.
func runCircuit(c circuit, w workload, workers int, tr *tracer, id int) (r circuitRun) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	start := time.Now()
	root := tr.begin(id, 0, "flow")

	s := tr.begin(id, root, "blif.parse")
	nw, err := blif.Parse(bytes.NewReader(c.blif))
	tr.end(s)
	if err != nil {
		r.err = err
		return r
	}
	s = tr.begin(id, root, "network.clone")
	ref := nw.Clone()
	tr.end(s)

	opts := core.Options{Config: w.config, POS: true, Pool: true, Workers: workers}
	subParent := root
	resub := func(nw *network.Network) {
		s := tr.begin(id, subParent, "core.substitute")
		st := core.Substitute(nw, opts)
		tr.end(s)
		for k := 0; k < len(r.passes) && k < len(st.PassTimes); k++ {
			r.passes[k] += st.PassTimes[k]
		}
		r.stats.Accumulate(st)
	}
	optStart := time.Now()
	s = tr.begin(id, root, "script")
	if w.algebraic {
		subParent = s
		script.Algebraic(nw, resub)
		tr.end(s)
		r.nodesAfter = nw.NumNodes()
	} else {
		script.A(nw)
		tr.end(s)
		r.nodesAfter = nw.NumNodes()
		resub(nw)
	}
	r.opt = time.Since(optStart)

	s = tr.begin(id, root, "verify")
	res, err := verify.Check(ref, nw, 0)
	tr.end(s)
	if err != nil {
		r.err = err
		return r
	}
	r.sat = len(ref.PIs()) > verify.ExhaustiveLimit

	s = tr.begin(id, root, "blif.write")
	var buf bytes.Buffer
	err = blif.Write(&buf, nw)
	tr.end(s)
	r.flow = time.Since(start)
	tr.end(root)
	if err != nil {
		r.err = err
		return r
	}
	r.out = buf.Bytes()
	r.lits = nw.FactoredLits()
	switch {
	case !res.Equivalent:
		r.err = fmt.Errorf("verify: not equivalent at %s", res.FailingPO)
	case r.flow > circuitCap:
		r.err = fmt.Errorf("flow took %v, over the %v cap", r.flow, circuitCap)
	}
	return r
}

// iteration is one pass of the flow over every circuit of a workload.
type iteration struct {
	flow, opt time.Duration
	alloc     uint64
	runs      []circuitRun
	spans     []span // this iteration's spans, when traced
}

// runIteration runs the flow on every circuit in order. A GC before each
// circuit, outside its timing, starts it from a heap holding only the
// inputs, as a bdsopt process per circuit would.
func runIteration(cs []circuit, w workload, workers int, tr *tracer, firstID int) iteration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	mark := 0
	if tr != nil {
		mark = len(tr.spans)
	}
	it := iteration{runs: make([]circuitRun, len(cs))}
	for i, c := range cs {
		runtime.GC()
		r := runCircuit(c, w, workers, tr, firstID+i)
		it.flow += r.flow
		it.opt += r.opt
		it.runs[i] = r
	}
	runtime.ReadMemStats(&ms)
	it.alloc = ms.TotalAlloc - before
	if tr != nil {
		it.spans = tr.spans[mark:]
	}
	return it
}
