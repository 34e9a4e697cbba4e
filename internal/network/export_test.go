package network

// EvalCoverMinterm exposes the minterm reference evaluator to the external
// test package, whose tests need internal/bench (which imports network).
var EvalCoverMinterm = evalCoverMinterm

// WriteBLIF renders a network as BLIF text for the internal tests. The
// writer lives in internal/blif, which imports this package, so the
// external test package installs it (see blif_bridge_test.go).
var WriteBLIF func(*Network) string
