package main

import (
	"fmt"
	"os"
	"time"

	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// The Table-1 setup of the paper: 32 virtual workers, one straggler
// fragment three times the median size, PageRank at Tol 1e-4.
const (
	prWorkers = 32
	prRatio   = 3
	prTol     = 1e-4
	prDamping = 0.85
	// The reference iterates to a far tighter fixpoint than the engine's
	// Tol, so the gap measured is the engine's.
	prRefEps     = 1e-10
	prRefMaxIter = 1000
	// bspPairs is how many AAP/BSP query pairs a traced run alternates
	// for core.aap_over_bsp.
	bspPairs = 4
)

// setupRepeats is how many times a resident workload loads its input;
// setup_s is the median.
const setupRepeats = 15

// runPageRankSkew runs repeated PageRank queries on one resident
// Session over a skewed partition. Serve and RPC are bypassed.
func runPageRankSkew(cfg config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	g0 := friendsterSim(cfg.seed)
	in, err := writeInput(inputPath(cfg), g0)
	if err != nil {
		return nil, err
	}
	defer os.Remove(in.Path)
	o.input = in

	var want []float64
	var refTimes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		want = ref.PageRank(g0, prDamping, prRefEps, prRefMaxIter)
		refTimes = append(refTimes, time.Since(t0).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base := liveHeap()
	var sess *core.Session
	var ing ingestLog
	p, err := ing.loadResident(tr, in.Path, prWorkers, partition.Skewed{Ratio: prRatio}, "core.NewSession", layerCore,
		func() { sess = nil },
		func(p *partition.Partitioned) error {
			sess = core.NewSession(p)
			return nil
		})
	if err != nil {
		return nil, err
	}
	o.e2e.add("resident_mb", "MiB", residentMB(base))
	o.addSetup(ing.setup)
	o.addIngest(&ing, p, in)

	order, err := refOrder(p.G.NumVertices(), func(v int) graph.VertexID { return p.G.IDOf(int32(v)) }, g0)
	if err != nil {
		return nil, err
	}
	job := pagerank.Job(pagerank.Config{Damping: prDamping, Tol: prTol})
	var worstVertex, worstMass float64
	check := func(q queryRun[float64]) error {
		if q.err != nil {
			return nil
		}
		v, m := prGap(q.res.Values, want, order)
		worstVertex, worstMass = max(worstVertex, v), max(worstMass, m)
		return checkPageRank(q.res.Values, want, order)
	}

	// Warm-up, untimed: lazy set-up and the first heap growth.
	q := timedQuery(sess, job, core.AAP)
	err = q.err
	if err == nil {
		err = check(q)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up query: %w", err)
	}

	err = o.runSequential(cfg, tr, in.Edges, func(t *tracer, i int) (seqOp, error) {
		q := timedQuery(sess, job, core.AAP)
		root := t.reserve(i, "op", q.start)
		t.add(i, root, "core.Query", layerCore, q.start, q.end)
		t.finish(root, q.end)
		return seqOp{wall: q.wall(), query: q, wrong: check(q)}, nil
	})
	if err != nil {
		return nil, err
	}
	o.note("pagerank largest relative gap to ref: vertex %.3g (tolerance %g), mass %.3g (tolerance %g); reference mass / n = %.4f",
		worstVertex, prRel, worstMass, prMassRel, sumOf(want)/float64(len(want)))

	if cfg.trace {
		o.addAAPOverBSP(bspPairs, func(mode core.Mode) (time.Duration, error, error) {
			q := timedQuery(sess, job, mode)
			return q.wall(), q.err, check(q)
		})
		o.addSelfTimes(tr, "op")
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	o.layer.add("baseline.ref_ms", "ms", 1e3*median(refTimes))
	o.addServeAbsent()
	return o, nil
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
