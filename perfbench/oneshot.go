package main

import (
	"fmt"
	"os"
	"time"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// oneshotFrags is the job's fragment count; BFS locality is grapecli's
// default partition strategy.
const oneshotFrags = 8

// runOneshotRoadnet repeats a grapecli-style job back to back: read the
// roadnet file, partition it, open a Session and answer one SSSP query.
// Ingest dominates; messaging is light, so a messaging or serving change
// should not move this workload.
func runOneshotRoadnet(cfg config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	g0 := roadnetSim(cfg.seed)
	in, err := writeInput(inputPath(cfg), g0)
	if err != nil {
		return nil, err
	}
	defer os.Remove(in.Path)
	o.input = in
	source := pickSources(g0, 1, cfg.seed)[0]

	var want []float64
	var refTimes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		want = ref.SSSP(g0, source)
		refTimes = append(refTimes, time.Since(t0).Seconds())
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	job := sssp.Job(source)
	var sess *core.Session
	check := func(q queryRun[float64]) error {
		if q.err != nil {
			return nil
		}
		g := sess.Partitioned().G
		order, err := refOrder(g.NumVertices(), func(v int) graph.VertexID { return g.IDOf(int32(v)) }, g0)
		if err != nil {
			return err
		}
		return checkSSSP(q.res.Values, want, order)
	}

	// A job is the whole pipeline from file to answer; its load is also
	// a setup_s sample, since a one-shot job pays set-up on every op.
	var ing ingestLog
	var p *partition.Partitioned
	ready := func(q *partition.Partitioned) error {
		p, sess = q, core.NewSession(q)
		return nil
	}

	// Warm-up, untimed; its set-up is the one resident_mb measures.
	base := liveHeap()
	if _, err := ing.load(nil, 0, -1, in.Path, oneshotFrags, partition.BFSLocality{}, "", "", ready); err != nil {
		return nil, err
	}
	o.e2e.add("resident_mb", "MiB", residentMB(base))
	q := timedQuery(sess, job, core.AAP)
	err = q.err
	if err == nil {
		err = check(q)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	ing = ingestLog{}

	err = o.runSequential(cfg, tr, in.Edges, func(t *tracer, i int) (seqOp, error) {
		t0 := time.Now()
		root := t.reserve(i, "op", t0)
		if _, err := ing.load(t, i, root, in.Path, oneshotFrags, partition.BFSLocality{}, "core.NewSession", layerCore, ready); err != nil {
			return seqOp{}, err
		}
		q := timedQuery(sess, job, core.AAP)
		t.add(i, root, "core.Query", layerCore, q.start, q.end)
		t.finish(root, q.end)
		return seqOp{wall: q.end.Sub(t0), query: q, wrong: check(q)}, nil
	})
	if err != nil {
		return nil, err
	}
	o.addSetup(ing.setup)
	o.addIngest(&ing, p, in)

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
