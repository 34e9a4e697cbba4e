// Command perfbench is the end-to-end benchmark of the shipped bdsopt flow:
// BLIF parse, script, core.Substitute with the CLI's options (POS, Pool,
// signature filter, two passes, GOMAXPROCS workers), verify and BLIF write,
// on circuits it generates from a seed. It prints the metrics named in
// BENCHMARK.json as one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cone_ext --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// records one span per layer call, writes them under .bench_build/traces and
// reports per-layer self times and counters.
//
// The flow runs in a child process. If the child crashes (a panic in a
// worker goroutine kills the whole process) or overruns its time cap, the
// parent still prints a result, with every circuit of the workload failed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// childCap bounds the child process, so a run ends within three minutes.
const childCap = 165 * time.Second

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	child := flag.Bool("child", false, "run the flow in this process (set by the parent)")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if !*child {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		args := append([]string{"--child"}, os.Args[1:]...)
		os.Exit(supervise(exe, args, w.circuits(), childCap, os.Stdout))
	}
	inf, res, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range inf.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(inf) // a failed stdout write shows as a missing result
	_ = enc.Encode(res)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// supervise runs the child, copies its standard output to stdout and
// returns the exit code. When the child dies, is killed at limit, or ends
// without a result line, it prints a result with all circuits failed.
func supervise(exe string, args []string, circuits int, limit time.Duration, stdout io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	res, ok := lastResult(out.Bytes())
	if runErr == nil && ok {
		_, _ = stdout.Write(out.Bytes()) // nothing left to report a write error to
		if res.Correct {
			return 0
		}
		return 1
	}
	reason := "no result line"
	if runErr != nil {
		reason = runErr.Error()
	}
	if ctx.Err() != nil {
		reason = "killed at the " + limit.String() + " time cap"
	}
	fmt.Fprintln(os.Stderr, "perfbench: workload process failed:", reason)
	failed := result{Attempted: circuits, Failed: circuits, Metrics: map[string]metric{
		"failed_frac": {Value: 1, Unit: "ratio"},
	}}
	b, _ := json.Marshal(failed) // plain struct, cannot fail
	fmt.Fprintf(stdout, "%s\n", b)
	return 1
}

// lastResult parses the last non-empty line of out as a result.
func lastResult(out []byte) (result, bool) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Attempted < 1 || r.Metrics == nil {
		return result{}, false
	}
	return r, true
}
