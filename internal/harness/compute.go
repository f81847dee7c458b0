package harness

import (
	"fmt"
	"runtime"
	"strings"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// computeShardCounts is the kernel-shard axis of the compute experiment.
var computeShardCounts = []int{1, 2, 4, 8}

// roundsReporter is implemented by the compute-plane kernels: the
// number of frontier rounds PEval ran to its local fixpoint, which
// normalizes wall time and allocations to per-round figures.
type roundsReporter interface{ KernelRounds() int }

// bucketReporter is implemented by the delta-stepping kernel: nonempty
// distance-range buckets drained.
type bucketReporter interface{ BucketsDrained() int }

// kernelRun is one kernel execution's measurements.
type kernelRun struct {
	secs    float64
	rounds  int
	allocs  uint64
	relaxed int64 // scanned edges; -1 when the kernel is not a core.ScanCounter
	buckets int   // 0 when the kernel is not bucketed
}

// runKernel executes one job's kernel to its local fixpoint on a
// single-fragment partition.
func runKernel[T any](p *partition.Partitioned, job core.Job[T]) kernelRun {
	f := p.Frags[0]
	prog := job.New(f)
	ctx := core.NewEngineContext[T](f, 1)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	secs := timeIt(func() { prog.PEval(ctx) })
	runtime.ReadMemStats(&m1)
	ctx.TakeOut()
	r := kernelRun{secs: secs, rounds: 1, allocs: m1.Mallocs - m0.Mallocs, relaxed: -1}
	if rr, ok := prog.(roundsReporter); ok {
		r.rounds = max(rr.KernelRounds(), 1)
	}
	if sc, ok := prog.(core.ScanCounter); ok {
		r.relaxed = sc.ScannedEdges()
	}
	if br, ok := prog.(bucketReporter); ok {
		r.buckets = br.BucketsDrained()
	}
	return r
}

// kernelRow formats one measurement row: per-round time and allocation
// figures plus, when reported, relaxations per round and the bucket
// count.
func kernelRow(b *strings.Builder, name string, r kernelRun) {
	fmt.Fprintf(b, "  %-14s %10.3fms total  %5d rounds  %12.0f ns/round  %8.1f allocs/round",
		name, r.secs*1e3, r.rounds, r.secs*1e9/float64(r.rounds), float64(r.allocs)/float64(r.rounds))
	if r.relaxed >= 0 {
		fmt.Fprintf(b, "  %9d relax", r.relaxed)
	}
	if r.buckets > 0 {
		fmt.Fprintf(b, "  %5d buckets", r.buckets)
	}
	b.WriteByte('\n')
}

// Compute measures the intra-fragment parallel compute plane: each
// kernel runs PEval to its local fixpoint on one fragment holding the
// whole stand-in graph, at forced kernel shard counts 1/2/4/8, and the
// report normalizes to ns/round and allocs/round (plus relaxations and
// bucket counts where kernels report them). On a machine with fewer
// cores than shards the extra rows measure fan-out overhead, not
// speedup — the row to read is shards=cores. The sequential reference
// kernel is included as the baseline row.
//
// The second section is the SSSP delta axis on the road-network
// stand-in: the Bellman-Ford-ordered frontier sweep against the
// delta-stepping kernel at bucket widths tiny (near-Dijkstra ordering),
// auto (mean edge weight) and huge (degenerates back to Bellman-Ford),
// at equal shard counts — the relaxation columns are the point.
// ssspDelta > 0 adds a row with that forced bucket width.
// cmd/aapbench exposes it all as -exp compute [-sssp-delta w].
func Compute(ssspDelta float64) (string, error) {
	ds := FriendsterSim(Scale())
	und := graph.AsUndirected(ds.Graph)
	p, err := partition.Build(ds.Graph, 1, partition.Hash{})
	if err != nil {
		return "", err
	}
	pu, err := partition.Build(und, 1, partition.Hash{})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "frontier-parallel kernels on %s (n=%d, m=%d), one fragment, GOMAXPROCS=%d\n",
		ds.Name, ds.Graph.NumVertices(), ds.Graph.NumEdges(), runtime.GOMAXPROCS(0))
	b.WriteString("(shard rows beyond the core count measure fan-out overhead, not speedup)\n")

	// ref is the retained sequential kernel, nil when the shards=1 row
	// already is the sequential reference (PageRank's one-shard round).
	type row struct {
		name string
		run  func(shards int) kernelRun
		ref  func() kernelRun
	}
	rows := []row{
		{
			name: "sssp",
			run:  func(k int) kernelRun { return runKernel(p, sssp.JobShards(ds.Source, k)) },
			ref:  func() kernelRun { return runKernel(p, sssp.RefJob(ds.Source)) },
		},
		{
			name: "cc",
			run:  func(k int) kernelRun { return runKernel(pu, cc.JobShards(k)) },
			ref:  func() kernelRun { return runKernel(pu, cc.RefJob()) },
		},
		{
			name: "pagerank",
			run: func(k int) kernelRun {
				return runKernel(p, pagerank.Job(pagerank.Config{Tol: 1e-4, Shards: k}))
			},
		},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s:\n", r.name)
		if r.ref != nil {
			kernelRow(&b, "seq ref", r.ref())
		}
		for _, k := range computeShardCounts {
			kernelRow(&b, fmt.Sprintf("shards=%d", k), r.run(k))
		}
	}

	// SSSP delta axis on the road network.
	rd := RoadNetSim(Scale())
	prd, err := partition.Build(rd.Graph, 1, partition.Hash{})
	if err != nil {
		return "", err
	}
	meanW := meanWeight(rd.Graph)
	fmt.Fprintf(&b, "\nsssp delta axis on %s (n=%d, m=%d, mean w=%.3f):\n",
		rd.Name, rd.Graph.NumVertices(), rd.Graph.NumEdges(), meanW)
	kernelRow(&b, "dijkstra ref", runKernel(prd, sssp.RefJob(rd.Source)))
	widths := []struct {
		name  string
		delta float64
	}{
		{"delta=tiny", meanW / 64},
		{"delta=auto", 0},
		{"delta=huge", 1e18},
	}
	if ssspDelta > 0 {
		widths = append(widths, struct {
			name  string
			delta float64
		}{fmt.Sprintf("delta=%g", ssspDelta), ssspDelta})
	}
	for _, k := range []int{1, 4} {
		kernelRow(&b, fmt.Sprintf("frontier/s=%d", k),
			runKernel(prd, sssp.JobConfig(sssp.Config{Source: rd.Source, Kernel: sssp.KernelFrontier, Shards: k})))
		for _, w := range widths {
			kernelRow(&b, fmt.Sprintf("%s/s=%d", w.name, k),
				runKernel(prd, sssp.JobConfig(sssp.Config{
					Source: rd.Source, Kernel: sssp.KernelBuckets, Shards: k, Delta: w.delta,
				})))
		}
	}
	return b.String(), nil
}

// meanWeight returns the mean edge weight of g (1 for unweighted).
func meanWeight(g *graph.Graph) float64 {
	if !g.Weighted() {
		return 1
	}
	var sum float64
	var n int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, w := range g.OutWeights(v) {
			sum += w
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
