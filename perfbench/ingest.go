package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// ingestLog times the file-to-fragments steps of repeated loads.
type ingestLog struct {
	setup, read, build []float64 // seconds per load
	vertices           int
	edges              int64
}

// load reads path with graph.ReadEdgeListFile, partitions it into frags
// fragments with partition.Build, then runs ready, the rest of the
// workload's set-up (named readyName in the trace). The whole load is
// one setup_s sample. With a non-nil tracer the three steps become
// spans of op under parent.
func (l *ingestLog) load(tr *tracer, op, parent int, path string, frags int, s partition.Strategy,
	readyName, readyLayer string, ready func(*partition.Partitioned) error) (*partition.Partitioned, error) {
	t0 := time.Now()
	g, err := graph.ReadEdgeListFile(path)
	if err != nil {
		return nil, fmt.Errorf("read input: %w", err)
	}
	t1 := time.Now()
	p, err := partition.Build(g, frags, s)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	t2 := time.Now()
	if err := ready(p); err != nil {
		return nil, err
	}
	t3 := time.Now()
	tr.add(op, parent, "graph.ReadEdgeListFile", layerGraph, t0, t1)
	tr.add(op, parent, "partition.Build", layerPartition, t1, t2)
	tr.add(op, parent, readyName, readyLayer, t2, t3)
	l.read = append(l.read, t1.Sub(t0).Seconds())
	l.build = append(l.build, t2.Sub(t1).Seconds())
	l.setup = append(l.setup, t3.Sub(t0).Seconds())
	l.vertices, l.edges = g.NumVertices(), g.NumEdges()
	return p, nil
}

// loadResident performs a resident workload's setupRepeats loads, each
// under its own "setup" root span, and returns the last. Before each
// load, drop releases the previous one and a full collection runs
// (untimed), so every load starts from the same heap.
func (l *ingestLog) loadResident(tr *tracer, path string, frags int, s partition.Strategy,
	readyName, readyLayer string, drop func(), ready func(*partition.Partitioned) error) (*partition.Partitioned, error) {
	var p *partition.Partitioned
	for i := 0; i < setupRepeats; i++ {
		drop()
		p = nil
		runtime.GC()
		op := -1 - i
		t0 := time.Now()
		root := tr.reserve(op, "setup", t0)
		var err error
		if p, err = l.load(tr, op, root, path, frags, s, readyName, readyLayer, ready); err != nil {
			return nil, err
		}
		tr.finish(root, time.Now())
	}
	return p, nil
}

// addIngest fills the graph and partition layer metrics. Sizes, bytes
// and copies repeat exactly for a seed and are reported as counts.
func (o *outcome) addIngest(l *ingestLog, p *partition.Partitioned, in inputInfo) {
	m := &o.layer
	read := median(l.read)
	m.add("graph.read_s", "s", read)
	m.add("graph.read_mb_per_s", "MB/s", float64(in.FileBytes)/1e6/read)
	m.add("graph.vertices", "count", float64(l.vertices))
	m.add("graph.edges", "count", float64(l.edges))
	m.add("partition.build_s", "s", median(l.build))
	m.add("partition.slot_table_bytes", "bytes", float64(p.SlotTableBytes()))
	m.add("partition.routing_bytes", "bytes", float64(p.RoutingTableBytes()))
	copies := 0
	for _, f := range p.Frags {
		copies += len(f.Out)
	}
	m.add("partition.border_copies", "count", float64(copies))
	m.add("partition.skew", "ratio", p.Skew())
	o.samples["graph.read_s"] = len(l.read)
	o.samples["partition.build_s"] = len(l.build)
}

// addServeAbsent fills the serve and RPC counters of a workload that
// bypasses both: nothing was batched, refused or sent.
func (o *outcome) addServeAbsent() {
	o.layer.add("serve.batch_size_mean", "count", 0)
	o.layer.add("serve.batches", "count", 0)
	o.layer.add("serve.rejected", "count", 0)
	o.layer.add("rpc.response_bytes", "bytes", 0)
}

// addAAPOverBSP alternates pairs of AAP and BSP runs of the same query
// and reports the ratio of their median wall times. run returns the
// wall time, the run's error and a wrong-answer error.
func (o *outcome) addAAPOverBSP(pairs int, run func(core.Mode) (time.Duration, error, error)) {
	var aap, bsp []float64
	for i := 0; i < pairs; i++ {
		for _, mode := range []core.Mode{core.AAP, core.BSP} {
			d, err, wrong := run(mode)
			o.count(err, wrong)
			if err != nil || wrong != nil {
				continue
			}
			if mode == core.AAP {
				aap = append(aap, d.Seconds())
			} else {
				bsp = append(bsp, d.Seconds())
			}
		}
	}
	o.layer.add("core.aap_over_bsp", "ratio", median(aap)/median(bsp))
	o.samples["core.aap_over_bsp"] = len(aap)
	o.note("AAP p50 %.1f ms vs BSP p50 %.1f ms over %d alternating pairs", 1e3*median(aap), 1e3*median(bsp), pairs)
}

// count adds one op outside the timed loop (a probe or a BSP leg query)
// to the attempted, failed and wrong totals.
func (o *outcome) count(err, wrong error) {
	o.attempted++
	if err != nil || wrong != nil {
		o.failed++
	}
	if wrong != nil {
		o.wrong++
	}
}

func seconds(cfg config) time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// tracePath names the span file of a traced run.
func tracePath(cfg config) string {
	return filepath.Join(dataDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}
