// Package spawn flags goroutine creation in the engine packages and in
// internal/opt, the SIS-style baseline commands. All engine concurrency is
// required to flow through the bounded worker pool, evaluator.pool in
// internal/core/engine.go — its single annotated `go` site, shared by the
// wave reducer and the batch scheduler — so worker counts stay clamped,
// results reduce in deterministic candidate order, worker panics reach the
// caller, and the race gate covers every spawn. An ad-hoc goroutine
// anywhere else in the result-affecting packages bypasses all four
// properties.
package spawn

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the spawn rule.
var Analyzer = &analysis.Analyzer{
	Name: "spawn",
	Doc: "forbid goroutine creation in engine packages outside the bounded " +
		"worker pool (evaluator.pool in core/engine.go), which carries the one sanctioned " +
		"//bdslint:ignore spawn site",
	Guarded: []string{"internal/core", "internal/network", "internal/netlist", "internal/atpg", "internal/opt"},
	Run:     run,
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "goroutine creation in an engine package: use the bounded worker pool (evaluator.pool in core/engine.go) or justify with //bdslint:ignore spawn")
			}
			return true
		})
	}
}
