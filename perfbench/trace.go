package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names used by spans. layerBench is the benchmark's own op span;
// its self time is the part of an op's wall time no layer accounts for.
const (
	layerBench     = "bench"
	layerGraph     = "graph"
	layerPartition = "partition"
	layerCore      = "core"
	layerServe     = "serve"
	layerRPC       = "rpc"
)

// span is one timed call recorded by the benchmark around a public
// entry point. Times are nanoseconds since the tracer's epoch; Parent is
// -1 for an op's root span, and every span of one op shares Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops pay only a nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(op, parent int, name, layer string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: t.at(start), End: t.at(end)})
	return id
}

// reserve records a root span whose end is filled in by finish, so that
// children can name it as their parent while it is still open.
func (t *tracer) reserve(op int, name string, start time.Time) int {
	return t.add(op, -1, name, layerBench, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.at(end)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children may nest, overlap each
// other (concurrent calls) or stick out of their parent; only their
// union inside the parent's interval counts.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// opWall sums the duration of the root spans named name.
func opWall(spans []span, name string) time.Duration {
	var d int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// opSpans keeps the spans of ops whose root is named name.
func opSpans(spans []span, name string) []span {
	ops := make(map[int]bool)
	for _, s := range spans {
		if s.Parent < 0 && s.Name == name {
			ops[s.Op] = true
		}
	}
	var out []span
	for _, s := range spans {
		if ops[s.Op] {
			out = append(out, s)
		}
	}
	return out
}
