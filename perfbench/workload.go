package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/core"
	"repro/internal/network"
)

// workload is one input family and the flow the CLI would run on it:
// `bdsopt -script <script> -alg <alg> -verify` on every circuit.
type workload struct {
	name string
	why  string
	// algebraic selects script.Algebraic with the resub step plugged in;
	// otherwise script.A runs first and core.Substitute after it.
	algebraic bool
	config    core.Config
	// shape, gates, pis and count describe count circuits made by
	// bench.Generate; an empty shape means the embedded bench suite.
	shape             string
	gates, pis, count int
}

var workloads = []workload{
	{
		name:      "suite_extgdc",
		why:       "23 embedded suite circuits, script.algebraic with ext+GDC resub (Table V flow): many small Substitute calls, batching off, exhaustive verify",
		algebraic: true,
		config:    core.ExtendedGDC,
	},
	{
		name:   "cone_ext",
		why:    "24 cone forests of 200 gates under script A + ext: disjoint cones (batch scheduler's best case), extended division and pooling, SAT-miter verify",
		config: core.Extended,
		shape:  "cone", gates: 200, count: 24,
	},
	{
		name:   "rand_basic",
		why:    "24 random DAGs of 200 gates over 16 inputs under script A + basic: entangled cones, so batches barely form; exhaustive verify",
		config: core.Basic,
		shape:  "rand", gates: 200, pis: 16, count: 24,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// circuits returns the number of circuits one iteration of w runs.
func (w workload) circuits() int {
	if w.shape == "" {
		return len(bench.Names())
	}
	return w.count
}

// circuit is one input of a workload, as the BLIF text the flow parses.
type circuit struct {
	name string
	blif []byte
}

// makeInputs builds w's circuits for seed and serializes them to BLIF. The
// suite's circuits are fixed, so there the seed shuffles their order;
// generated circuit j uses generator seed seed*1000+j.
func makeInputs(w workload, seed int64) ([]circuit, error) {
	var nets []*network.Network
	if w.shape == "" {
		names := bench.Names()
		rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) {
			names[i], names[j] = names[j], names[i]
		})
		for _, n := range names {
			nets = append(nets, bench.Get(n))
		}
	} else {
		for j := 0; j < w.count; j++ {
			nw, err := bench.Generate(w.shape, w.gates, w.pis, seed*1000+int64(j))
			if err != nil {
				return nil, err
			}
			nets = append(nets, nw)
		}
	}
	out := make([]circuit, len(nets))
	for i, nw := range nets {
		var buf bytes.Buffer
		if err := blif.Write(&buf, nw); err != nil {
			return nil, fmt.Errorf("serializing %s: %w", nw.Name, err)
		}
		out[i] = circuit{name: nw.Name, blif: buf.Bytes()}
	}
	return out, nil
}

// digest identifies a workload's inputs: SHA-256 over names and BLIF text,
// in order.
func digest(cs []circuit) string {
	h := sha256.New()
	for _, c := range cs {
		fmt.Fprintf(h, "%s\n%d\n", c.name, len(c.blif))
		h.Write(c.blif)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
