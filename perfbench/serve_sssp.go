package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
	"aap/internal/serve"
	"aap/internal/transport"
)

// The served-SSSP shape: graped's scheduler defaults, a hash partition
// into 8 fragments, and a closed loop of 2 callers sharing one loopback
// RPC connection, drawing sources from a seeded pool.
const (
	serveFrags       = 8
	serveMaxInflight = 4
	serveQueueDepth  = 64
	serveBatchWindow = 2 * time.Millisecond
	serveBatchMax    = 8
	poolSize         = 256
	callers          = 2
	rpcTimeout       = 60 * time.Second
	// probeRuns is how many direct engine runs of the served batch shape
	// the traced run makes to read core.RunStats, which RPC answers do
	// not carry.
	probeRuns = 6
)

// servedOp is one RPC query of the timed loop.
type servedOp struct {
	wall   time.Duration
	meta   serve.QueryMeta
	traced bool
	err    error
	wrong  error
}

// runServeSSSP serves SSSP queries over loopback RPC from one resident
// serve.Server. Ingest runs only at set-up.
func runServeSSSP(cfg config) (*outcome, error) {
	o := newOutcome(cfg.workload)
	g0 := friendsterSim(cfg.seed)
	in, err := writeInput(inputPath(cfg), g0)
	if err != nil {
		return nil, err
	}
	defer os.Remove(in.Path)
	o.input = in
	pool := pickSources(g0, poolSize, cfg.seed)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base := liveHeap()
	var (
		srv *serve.Server
		rs  *serve.RPCServer
		cl  *serve.Client
	)
	closeAll := func() {
		if cl != nil {
			cl.Close()
		}
		if rs != nil {
			rs.Close()
		}
		srv, rs, cl = nil, nil, nil
	}
	defer closeAll()
	var ing ingestLog
	p, err := ing.loadResident(tr, in.Path, serveFrags, partition.Hash{}, "serve.ListenRPC+DialRPC", layerRPC,
		closeAll, func(p *partition.Partitioned) error {
			srv = serve.New(p,
				serve.WithMaxInflight(serveMaxInflight),
				serve.WithQueueDepth(serveQueueDepth),
				serve.WithBatchWindow(serveBatchWindow),
				serve.WithBatchMax(serveBatchMax))
			var err error
			if rs, err = serve.ListenRPC(srv, "127.0.0.1:0", 0); err != nil {
				return fmt.Errorf("listen: %w", err)
			}
			if cl, err = serve.DialRPC(rs.Addr(), 1, rpcTimeout); err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	o.e2e.add("resident_mb", "MiB", residentMB(base))
	o.addSetup(ing.setup)
	o.addIngest(&ing, p, in)

	// References, outside any timed window: the digest of ref.SSSP for
	// every pooled source, in the server's vertex order.
	ids, err := cl.IDs()
	if err != nil {
		return nil, fmt.Errorf("ids: %w", err)
	}
	order, err := refOrder(len(ids), func(v int) graph.VertexID { return graph.VertexID(ids[v]) }, g0)
	if err != nil {
		return nil, err
	}
	want, refTimes := refDigests(g0, pool, order)
	o.layer.add("baseline.ref_ms", "ms", 1e3*median(refTimes))
	o.samples["baseline.ref_ms"] = len(refTimes)
	check := func(src graph.VertexID, dist []float64) error {
		if digest(dist) == want[src] {
			return nil
		}
		if err := checkSSSP(dist, ref.SSSP(g0, src), order); err != nil {
			return fmt.Errorf("source %d: %w", src, err)
		}
		return nil
	}

	// Warm-up, untimed: every caller's first queries.
	if err := serveLoop(cl, pool, check, nil, cfg.seed, time.Now(), 2*callers, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The timed closed loop. It runs at least --seconds and until the
	// untraced ops leave minBeyond samples beyond p90.
	need := samplesFor(0.9)
	if cfg.trace {
		need *= 2
	}
	s0 := srv.Stats()
	c0 := readCounters()
	start := time.Now()
	var ops []servedOp
	if err := serveLoop(cl, pool, check, tr, cfg.seed, start.Add(seconds(cfg)), need, &ops); err != nil {
		return nil, err
	}
	window := time.Since(start)
	gc := readCounters().sub(c0)
	s1 := srv.Stats()

	var log opLog
	var engineMS, queueMS, rpcMS []float64
	completed := 0
	for _, op := range ops {
		log.add(op.wall, op.traced, op.err, op.wrong)
		if op.err != nil || op.wrong != nil {
			continue
		}
		completed++
		engineMS = append(engineMS, 1e3*op.meta.Seconds)
		queueMS = append(queueMS, 1e3*op.meta.QueueWaitSeconds)
		rpcMS = append(rpcMS, 1e3*(op.wall.Seconds()-op.meta.Seconds))
	}
	o.addLatency(&log, window, completed)
	o.layer.add("runtime.gc_cpu_frac", "frac", gc.gcFrac())
	batches := s1.Batches - s0.Batches
	meanBatch := float64(s1.BatchedQueries-s0.BatchedQueries) / math.Max(1, float64(batches))
	o.layer.add("serve.batch_size_mean", "count", meanBatch)
	o.layer.add("serve.batches", "count", float64(batches))
	o.layer.add("serve.rejected", "count", float64(s1.Rejected-s0.Rejected))
	// One answer: reqID, status, QueryMeta, then the length-prefixed
	// distance vector, in one transport frame.
	o.layer.add("rpc.response_bytes", "bytes", float64(transport.EncodedSize(8+4+5*8+4+8*len(ids))))
	o.note("serve.engine_ms p50 %.3f, serve.queue_wait_ms p50 %.3f, rpc.overhead_ms p50 %.3f (n=%d)",
		median(engineMS), median(queueMS), median(rpcMS), len(engineMS))

	if cfg.trace {
		lanes := min(max(int(math.Round(meanBatch)), 1), serveBatchMax)
		o.addServeProbes(srv.Session(), pool, lanes, check, in.Edges)
		o.addSelfTimes(tr, "op")
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// refDigests computes ref.SSSP for every pooled source, callers at a
// time, and returns each answer's digest in the server's vertex order
// with the wall time of every reference run.
func refDigests(g0 *graph.Graph, pool []graph.VertexID, order []int32) (map[graph.VertexID]uint64, []float64) {
	digests := make([]uint64, len(pool))
	times := make([]float64, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pool); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				d := ref.SSSP(g0, pool[i])
				times[i] = time.Since(t0).Seconds()
				digests[i] = digest(inOrder(d, order))
			}
		}()
	}
	wg.Wait()
	want := make(map[graph.VertexID]uint64, len(pool))
	for i, s := range pool {
		want[s] = digests[i]
	}
	return want, times
}

// serveLoop runs the closed loop: callers goroutines share cl, each
// issuing its next query when the previous answer arrives, until
// deadline has passed and at least need ops were made. Every other op
// of a caller is traced when tr is non-nil. Ops land in *ops when ops is
// non-nil; otherwise any failure is returned.
func serveLoop(cl *serve.Client, pool []graph.VertexID, check func(graph.VertexID, []float64) error,
	tr *tracer, seed int64, deadline time.Time, need int, ops *[]servedOp) error {
	var (
		mu    sync.Mutex
		all   []servedOp
		count atomic.Int64
		wg    sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
			for i := 0; ; i++ {
				if time.Now().After(deadline) && count.Load() >= int64(need) {
					return
				}
				count.Add(1)
				src := pool[rng.Intn(len(pool))]
				var t *tracer
				if i%2 == 1 {
					t = tr
				}
				op := c<<32 | i
				t0 := time.Now()
				root := t.reserve(op, "op", t0)
				dist, meta, err := cl.SSSP(src)
				t1 := time.Now()
				if t != nil {
					// The server reports durations, not instants: its
					// span is laid out from the call's start, queue wait
					// first, then the engine run.
					call := t.add(op, root, "serve.Client.SSSP", layerRPC, t0, t1)
					srvEnd := t0.Add(time.Duration(meta.Seconds * 1e9))
					queued := t0.Add(time.Duration(meta.QueueWaitSeconds * 1e9))
					sv := t.add(op, call, "serve.Server.SSSP", layerServe, t0, srvEnd)
					t.add(op, sv, "core.Query(sssp.MultiJob)", layerCore, queued, srvEnd)
				}
				t.finish(root, t1)
				var wrong error
				if err == nil {
					wrong = check(src, dist)
				}
				mu.Lock()
				all = append(all, servedOp{wall: t1.Sub(t0), meta: meta, traced: t != nil, err: err, wrong: wrong})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if ops != nil {
		*ops = all
		return nil
	}
	for _, op := range all {
		if op.err != nil {
			return op.err
		}
		if op.wrong != nil {
			return op.wrong
		}
	}
	return nil
}

// addServeProbes reads the engine counters of the served workload: the
// RPC answer carries only QueryMeta, so the traced run repeats the
// server's engine call, core.Query of an sssp.MultiJob batch of lanes
// pooled sources, directly on the server's Session, and checks every
// lane. It also alternates AAP and BSP runs of the same batch.
func (o *outcome) addServeProbes(sess *core.Session, pool []graph.VertexID, lanes int,
	check func(graph.VertexID, []float64) error, edges int64) {
	batch := func(i int) []graph.VertexID {
		out := make([]graph.VertexID, lanes)
		for l := range out {
			out[l] = pool[(i*lanes+l)%len(pool)]
		}
		return out
	}
	run := func(i int, mode core.Mode) (queryRun[[]float64], error) {
		srcs := batch(i)
		q := timedQuery(sess, sssp.MultiJob(sssp.MultiConfig{Sources: srcs}), mode)
		if q.err != nil {
			return q, nil
		}
		for l, s := range srcs {
			if wrong := check(s, sssp.Lane(q.res.Values, l)); wrong != nil {
				return q, wrong
			}
		}
		return q, nil
	}
	var eng engineLog
	for i := 0; i < probeRuns; i++ {
		q, wrong := run(i, core.AAP)
		o.count(q.err, wrong)
		if q.err == nil && wrong == nil {
			eng.add(&q.res.Stats, q.wall().Seconds(), lanes)
			eng.addAllocs(q.alloc)
		}
	}
	o.addCore(&eng, edges)
	o.note("engine counters from %d direct runs of %d-lane batches", probeRuns, lanes)
	i := probeRuns
	o.addAAPOverBSP(bspPairs, func(mode core.Mode) (time.Duration, error, error) {
		q, wrong := run(i, mode)
		if mode == core.BSP {
			i++
		}
		return q.wall(), q.err, wrong
	})
}
