package main

import "testing"

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90..100
		{Name: "d", Start: 25, End: 28, Parent: 2},  // grandchild: not the root's
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["root"] != 50e-6 {
		t.Errorf("layerSelf root = %v ms, want 5e-05", by["root"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
