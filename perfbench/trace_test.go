package main

import (
	"testing"
	"time"
)

func TestSelfTimesFromSyntheticSpanTree(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "flow", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "script", Start: 10, End: 40},
		{Trace: 1, ID: 3, Parent: 2, Name: "core.substitute", Start: 15, End: 25},
		{Trace: 1, ID: 4, Parent: 1, Name: "verify", Start: 30, End: 60},      // overlaps script
		{Trace: 1, ID: 5, Parent: 1, Name: "blif.write", Start: 90, End: 120}, // runs past its parent
		{Trace: 2, ID: 6, Name: "flow", Start: 200, End: 210},
		{Trace: 2, ID: 7, Parent: 6, Name: "core.substitute", Start: 202, End: 205},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 - |[10,60] ∪ [90,100]| = 40, plus trace 2's 10 - 3.
		"flow":            47,
		"script":          20,
		"core.substitute": 13,
		"verify":          30,
		"blif.write":      30,
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var off *tracer
	if id := off.begin(1, 0, "flow"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin(7, 0, "flow")
	child := tr.begin(7, root, "verify")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Trace != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	self := selfTimes(tr.spans)
	if total := self["flow"] + self["verify"]; total != time.Duration(tr.spans[0].End-tr.spans[0].Start) {
		t.Errorf("self times sum to %v, want the root's duration", total)
	}
}
