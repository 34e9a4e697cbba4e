package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestHelperProcess stands in for the benchmark child when
// PERFBENCH_HELPER names a behaviour; otherwise it does nothing.
func TestHelperProcess(t *testing.T) {
	switch os.Getenv("PERFBENCH_HELPER") {
	case "":
		return
	case "ok":
		fmt.Println(`{"workload":"x"}`)
		fmt.Println(`{"correct":true,"attempted":3,"failed":0,"metrics":{"flow_s":{"value":1.5,"unit":"s"}}}`)
	case "worker-panic":
		go panic("planner worker")
		select {}
	case "hang":
		time.Sleep(time.Minute)
	}
	os.Exit(0)
}

func TestSuperviseCountsCrashedOrKilledChildAsAllFailed(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		code     int
		wantLast string
	}{
		{"ok", 0, `{"correct":true,"attempted":3,"failed":0,"metrics":{"flow_s":{"value":1.5,"unit":"s"}}}`},
		{"worker-panic", 1, `{"correct":false,"attempted":3,"failed":3,"metrics":{"failed_frac":{"value":1,"unit":"ratio"}}}`},
		{"hang", 1, `{"correct":false,"attempted":3,"failed":3,"metrics":{"failed_frac":{"value":1,"unit":"ratio"}}}`},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Setenv("PERFBENCH_HELPER", tc.mode)
			var out bytes.Buffer
			start := time.Now()
			code := supervise(os.Args[0], []string{"-test.run=^TestHelperProcess$"}, 3, 2*time.Second, &out)
			if time.Since(start) > 30*time.Second {
				t.Errorf("supervise took %v", time.Since(start))
			}
			if code != tc.code {
				t.Errorf("exit code %d, want %d", code, tc.code)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if last := string(lines[len(lines)-1]); last != tc.wantLast {
				t.Errorf("last line %s, want %s", last, tc.wantLast)
			}
		})
	}
}
