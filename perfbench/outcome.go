package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"aap/internal/core"
)

// outcome is everything one workload run measured.
type outcome struct {
	workload string
	input    inputInfo

	attempted int // timed ops issued
	failed    int // ops that errored, were refused or answered wrongly
	wrong     int // answers that did not match the reference

	e2e   metricSet // end-to-end metrics, from untraced ops
	layer metricSet // per-layer metrics

	samples map[string]int  // sample count behind each percentile
	tailMet map[string]bool // whether a tail percentile leaves minBeyond samples beyond it
	notes   []string        // extra report lines
	prov    map[string]any
}

func newOutcome(workload string) *outcome {
	return &outcome{workload: workload, samples: map[string]int{}, tailMet: map[string]bool{}}
}

func (o *outcome) errorFrac() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// result is the summary line for this outcome.
func (o *outcome) result(traced bool) result {
	r := result{correct: o.wrong == 0, attempted: o.attempted, failed: o.failed, metrics: o.e2e}
	if traced {
		r.metrics = o.layer
	}
	return r
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// opLog collects the wall time of timed ops; a failed or wrong op
// counts as +Inf, so it misses every latency percentile.
type opLog struct {
	wall   []float64 // seconds
	traced []bool
	failed int
	wrong  int
}

func (l *opLog) add(wall time.Duration, traced bool, err, wrong error) {
	w := wall.Seconds()
	if err != nil || wrong != nil {
		w = math.Inf(1)
		l.failed++
	}
	if wrong != nil {
		l.wrong++
	}
	l.wall = append(l.wall, w)
	l.traced = append(l.traced, traced)
}

// split returns the wall times of untraced and traced ops.
func (l *opLog) split() (plain, traced []float64) {
	for i, w := range l.wall {
		if l.traced[i] {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	return plain, traced
}

// addLatency fills the end-to-end latency metrics from the untraced ops.
func (o *outcome) addLatency(l *opLog, window time.Duration, completed int) {
	plain, traced := l.split()
	o.attempted += len(l.wall)
	o.failed += l.failed
	o.wrong += l.wrong
	p50, _ := nearestRank(plain, 0.5)
	p90, beyond := nearestRank(plain, 0.9)
	o.e2e.add("latency_p50_ms", "ms", 1e3*p50)
	o.e2e.add("latency_p90_ms", "ms", 1e3*p90)
	o.e2e.add("ops_per_s", "1/s", float64(completed)/window.Seconds())
	o.samples["latency_p50_ms"] = len(plain)
	o.samples["latency_p90_ms"] = len(plain)
	o.samples["latency_p90_beyond"] = beyond
	o.tailMet["latency_p90_ms"] = tailOK(len(plain), 0.9)
	if len(traced) > 0 {
		t50, _ := nearestRank(traced, 0.5)
		o.layer.add("trace.overhead_frac", "frac", t50/p50-1)
		o.samples["trace.overhead_frac"] = len(traced)
	}
}

// addSetup fills setup_s from repeated set-ups (the median, so that one
// sample is not the metric).
func (o *outcome) addSetup(setups []float64) {
	o.e2e.add("setup_s", "s", median(setups))
	o.samples["setup_s"] = len(setups)
}

// engineLog collects the counters core.RunStats returns per engine run.
type engineLog struct {
	query, busy, idle, util     []float64
	roundsSum, roundsMax        []float64
	msgs, bytes, scanned, arena []float64
	lanes                       []float64
	allocs, allocBytes          []float64
}

// add records one run; seconds is the run's wall time as measured by its
// caller, lanes the number of sources it served.
func (e *engineLog) add(st *core.RunStats, seconds float64, lanes int) {
	e.query = append(e.query, seconds)
	e.busy = append(e.busy, st.TotalBusy)
	e.idle = append(e.idle, st.TotalIdle)
	if st.Seconds > 0 {
		e.util = append(e.util, st.TotalBusy/(st.Seconds*float64(runtime.GOMAXPROCS(0))))
	}
	e.roundsSum = append(e.roundsSum, float64(st.SumRounds))
	e.roundsMax = append(e.roundsMax, float64(st.MaxRound))
	e.msgs = append(e.msgs, float64(st.TotalMsgs))
	e.bytes = append(e.bytes, float64(st.TotalBytes))
	e.scanned = append(e.scanned, float64(st.ScannedEdges))
	e.arena = append(e.arena, float64(st.ArenaBytes))
	e.lanes = append(e.lanes, float64(lanes))
}

// addAllocs records the heap allocations of one run.
func (e *engineLog) addAllocs(d counters) {
	e.allocs = append(e.allocs, float64(d.allocs))
	e.allocBytes = append(e.allocBytes, float64(d.allocBytes))
}

// queryRun is one timed core.Query call.
type queryRun[T any] struct {
	res        *core.Result[T]
	start, end time.Time
	alloc      counters // heap allocations during the call
	err        error
}

// timedQuery calls core.Query on sess and times it.
func timedQuery[T any](sess *core.Session, job core.Job[T], mode core.Mode) queryRun[T] {
	a0 := readCounters()
	q := queryRun[T]{start: time.Now()}
	q.res, q.err = core.Query(sess, job, core.Options{Mode: mode})
	q.end = time.Now()
	q.alloc = readCounters().sub(a0)
	return q
}

func (q queryRun[T]) wall() time.Duration { return q.end.Sub(q.start) }

// seqOp is one op of a sequential loop.
type seqOp struct {
	wall  time.Duration // the whole op
	query queryRun[float64]
	wrong error // the answer did not match the reference
}

// runSequential repeats op back to back until the ops' wall times add up
// to --seconds (the answer checks between ops are not timed), tracing
// every other op when tr is non-nil, and fills the latency, engine and
// GC metrics. An error from op ends the run.
func (o *outcome) runSequential(cfg config, tr *tracer, edges int64, op func(t *tracer, i int) (seqOp, error)) error {
	var log opLog
	var eng engineLog
	var window time.Duration
	completed := 0
	c0 := readCounters()
	for i := 0; window < seconds(cfg) || len(log.wall) < 2; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		r, err := op(t, i)
		if err != nil {
			return err
		}
		window += r.wall
		log.add(r.wall, t != nil, r.query.err, r.wrong)
		if r.query.err == nil && r.wrong == nil {
			completed++
			eng.add(&r.query.res.Stats, r.query.wall().Seconds(), 1)
			eng.addAllocs(r.query.alloc)
		}
	}
	gc := readCounters().sub(c0)
	o.addLatency(&log, window, completed)
	o.addCore(&eng, edges)
	o.layer.add("runtime.gc_cpu_frac", "frac", gc.gcFrac())
	return nil
}

// addCore fills the core and algo/sssp layer metrics. Scheduling-
// dependent counters (messages, rounds, scanned edges under AAP) are a
// median with their spread; the arena size repeats exactly.
func (o *outcome) addCore(e *engineLog, edges int64) {
	m := &o.layer
	m.add("core.query_s", "s", median(e.query))
	m.add("core.busy_s", "s", median(e.busy))
	m.add("core.idle_s", "s", median(e.idle))
	m.add("core.cpu_util", "frac", median(e.util))
	m.add("core.rounds_sum", "count", median(e.roundsSum))
	m.add("core.rounds_max", "count", median(e.roundsMax))
	m.add("core.rounds_max_spread", "frac", spread(e.roundsMax))
	m.add("core.msgs", "count", median(e.msgs))
	m.add("core.msgs_spread", "frac", spread(e.msgs))
	m.add("core.msg_bytes", "bytes", median(e.bytes))
	m.add("core.msgs_per_edge", "ratio", median(e.msgs)/float64(edges))
	m.add("core.arena_bytes", "bytes", median(e.arena))
	if len(e.allocs) > 0 {
		m.add("core.allocs_per_op", "count", median(e.allocs))
		m.add("core.alloc_bytes_per_op", "bytes", median(e.allocBytes))
		o.samples["core.allocs_per_op"] = len(e.allocs)
	}
	m.add("sssp.scanned_edges", "count", median(e.scanned))
	m.add("sssp.scanned_edges_spread", "frac", spread(e.scanned))
	ratios := make([]float64, len(e.scanned))
	for i := range e.scanned {
		ratios[i] = e.scanned[i] / (float64(edges) * e.lanes[i])
	}
	m.add("sssp.scan_ratio", "ratio", median(ratios))
	o.samples["core.query_s"] = len(e.query)
}

// addSelfTimes fills the traced run's per-layer self times, each as a
// share of the total wall time of the traced ops rooted at root.
func (o *outcome) addSelfTimes(t *tracer, root string) {
	spans := opSpans(t.snapshot(), root)
	wall := opWall(spans, root)
	self := selfTimes(spans)
	for _, l := range []string{layerGraph, layerPartition, layerCore, layerServe, layerRPC} {
		o.layer.add("self."+l+"_frac", "frac", frac(self[l], wall))
		o.note("self time %-9s %10.3f ms/op", l, perOp(self[l], spans, root))
	}
	o.layer.add("trace.unattributed_frac", "frac", frac(self[layerBench], wall))
	o.note("self time %-9s %10.3f ms/op", "unattrib.", perOp(self[layerBench], spans, root))
}

func frac(d, of time.Duration) float64 {
	if of <= 0 {
		return 0
	}
	return float64(d) / float64(of)
}

// perOp is d per traced op, in milliseconds.
func perOp(d time.Duration, spans []span, root string) float64 {
	n := 0
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(d) / 1e6 / float64(n)
}

// writeReport prints the outcome for a human reader.
func (o *outcome) writeReport(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%v  n=%d m=%d file=%d bytes  nproc=%v gomaxprocs=%v %v\n",
		o.workload, o.prov["seed"], o.input.Vertices, o.input.Edges, o.input.FileBytes,
		o.prov["nproc"], o.prov["gomaxprocs"], o.prov["go_version"])
	fmt.Fprintf(w, "   ops attempted=%d failed=%d wrong=%d error_frac=%g\n", o.attempted, o.failed, o.wrong, o.errorFrac())
	for _, set := range []*metricSet{&o.e2e, &o.layer} {
		for _, n := range set.order {
			m := set.m[n]
			extra := ""
			if c, ok := o.samples[n]; ok {
				extra = fmt.Sprintf("  (n=%d)", c)
			}
			fmt.Fprintf(w, "   %-28s %16.6g %-6s%s\n", n, m.Value, m.Unit, extra)
		}
	}
	for _, l := range o.notes {
		fmt.Fprintf(w, "   %s\n", l)
	}
}
