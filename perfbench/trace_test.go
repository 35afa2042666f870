package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "ladder", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Layer: "stepsim", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "run", Layer: "stepsim", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "run", Layer: "stepsim", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "inner", Layer: "workload", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestLayerSelfOnlyUnderNamedRoots(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "ladder", Layer: "bench", Start: 0, End: 1e9},
		{ID: 2, Parent: 1, Name: "run", Layer: "sim", Start: 0, End: 6e8},
		{ID: 3, Name: "probe", Layer: "sim", Start: 2e9, End: 5e9},
	}
	got := layerSelf(spans, "ladder")
	if math.Abs(got["bench"]-0.4) > 1e-12 || math.Abs(got["sim"]-0.6) > 1e-12 {
		t.Fatalf("layer self times %v, want bench 0.4 and sim 0.6 (the probe is outside any ladder)", got)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", "bench", 0, "")
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
}

func TestRecorderParentsPrecedeChildren(t *testing.T) {
	r := newRecorder()
	root := r.begin("ladder", "bench", 0, "")
	child := r.begin("run", "stepsim", root, "")
	r.end(child)
	r.end(root)
	sp := r.snapshot()
	if len(sp) != 2 || sp[1].Parent != sp[0].ID || sp[0].End < sp[1].End {
		t.Fatalf("spans %+v: want a closed root covering its child", sp)
	}
}
