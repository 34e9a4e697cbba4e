package network

// EvalCoverMinterm exposes the minterm reference evaluator to the external
// test package, whose tests need internal/bench (which imports network).
var EvalCoverMinterm = evalCoverMinterm
