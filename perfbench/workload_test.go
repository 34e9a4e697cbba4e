package main

import "testing"

func TestSeedsGiveDifferentInputDigests(t *testing.T) {
	for _, w := range workloads {
		one, err := makeInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := makeInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		two, err := makeInputs(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != w.circuits() {
			t.Errorf("%s: %d circuits, want %d", w.name, len(one), w.circuits())
		}
		if digest(one) != digest(again) {
			t.Errorf("%s: seed 1 gave two different inputs", w.name)
		}
		if digest(one) == digest(two) {
			t.Errorf("%s: seeds 1 and 2 gave the same input digest %s", w.name, digest(one))
		}
	}
}
