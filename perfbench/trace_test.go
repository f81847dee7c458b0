package main

import (
	"testing"
	"time"
)

func TestSelfTimesNested(t *testing.T) {
	// op [0,100) > rpc [10,90) > serve [20,80) > core [30,70)
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Layer: layerBench, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerRPC, Start: 10, End: 90},
		{ID: 2, Parent: 1, Layer: layerServe, Start: 20, End: 80},
		{ID: 3, Parent: 2, Layer: layerCore, Start: 30, End: 70},
	}
	want := map[string]time.Duration{layerBench: 20, layerRPC: 20, layerServe: 20, layerCore: 40}
	checkSelf(t, selfTimes(spans), want)
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Children [10,40) and [30,60) overlap: the parent is covered for 50,
	// not 60. A child sticking out of [0,100) counts only inside it, and a
	// child wholly outside counts not at all.
	spans := []span{
		{ID: 0, Parent: -1, Layer: layerBench, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerCore, Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: layerCore, Start: 30, End: 60},
		{ID: 3, Parent: 0, Layer: layerGraph, Start: 90, End: 120},
		{ID: 4, Parent: 0, Layer: layerPartition, Start: 130, End: 140},
	}
	want := map[string]time.Duration{
		layerBench:     100 - 50 - 10,
		layerCore:      60,
		layerGraph:     30,
		layerPartition: 10,
	}
	checkSelf(t, selfTimes(spans), want)
	if got := covered(spans[0], spans[1:]); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	root := tr.reserve(1, "op", time.Now())
	tr.add(1, root, "x", layerCore, time.Now(), time.Now())
	tr.finish(root, time.Now())
	if root != -1 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestOpSpansAndWall(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	setup := tr.reserve(-1, "setup", at(0))
	tr.add(-1, setup, "graph.ReadEdgeListFile", layerGraph, at(0), at(50))
	tr.finish(setup, at(60))
	op := tr.reserve(7, "op", at(100))
	tr.add(7, op, "core.Query", layerCore, at(100), at(190))
	tr.finish(op, at(200))

	spans := opSpans(tr.snapshot(), "op")
	if len(spans) != 2 {
		t.Fatalf("opSpans kept %d spans, want the op's 2", len(spans))
	}
	if w := opWall(spans, "op"); w != 100 {
		t.Errorf("opWall = %v, want 100ns", w)
	}
	checkSelf(t, selfTimes(spans), map[string]time.Duration{layerBench: 10, layerCore: 90})
}

func checkSelf(t *testing.T, got, want map[string]time.Duration) {
	t.Helper()
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %d, want %d", l, got[l], w)
		}
	}
	for l, g := range got {
		if _, ok := want[l]; !ok && g != 0 {
			t.Errorf("unexpected self time %d for %s", g, l)
		}
	}
}
