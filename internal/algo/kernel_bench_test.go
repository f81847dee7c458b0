package algo_test

// Kernel benchmarks: PEval-to-local-fixpoint on one fragment, the
// per-round scaling axis of BENCH_PR4. Shard rows beyond the core count
// measure fan-out overhead, not speedup. BenchmarkMultiJob is the one
// whole-engine run: the served multi-source batch.

import (
	"fmt"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

func benchFragment(b *testing.B, g *graph.Graph) *partition.Partitioned {
	b.Helper()
	p, err := partition.Build(g, 1, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchKernel[T any](b *testing.B, p *partition.Partitioned, job core.Job[T]) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog := job.New(p.Frags[0])
		ctx := core.NewEngineContext[T](p.Frags[0], 1)
		prog.PEval(ctx)
		ctx.TakeOut()
	}
}

func BenchmarkKernelSSSP(b *testing.B) {
	g := gen.PowerLaw(40000, 8, 2.1, true, 5)
	p := benchFragment(b, g)
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, sssp.RefJob(0)) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { benchKernel(b, p, sssp.JobShards(0, k)) })
	}
}

// BenchmarkKernelSSSPDelta is the delta axis on the road-network
// stand-in: the Bellman-Ford-ordered frontier sweep against the
// bucketed kernel at tiny/auto/huge bucket widths — relaxation counts,
// not just wall time, are what the widths trade (see aapbench -exp
// compute for the counters).
func BenchmarkKernelSSSPDelta(b *testing.B) {
	g := gen.RoadNet(150, 150, 131)
	p := benchFragment(b, g)
	b.Run("frontier", func(b *testing.B) {
		benchKernel(b, p, sssp.JobConfig(sssp.Config{Kernel: sssp.KernelFrontier, Shards: 1}))
	})
	for _, d := range []struct {
		name  string
		delta float64
	}{{"tiny", 0.02}, {"auto", 0}, {"huge", 1e18}} {
		b.Run("delta="+d.name, func(b *testing.B) {
			benchKernel(b, p, sssp.JobConfig(sssp.Config{Kernel: sssp.KernelBuckets, Shards: 1, Delta: d.delta}))
		})
	}
}

func BenchmarkKernelCC(b *testing.B) {
	g := graph.AsUndirected(gen.PowerLaw(40000, 8, 2.1, false, 5))
	p := benchFragment(b, g)
	b.Run("ref", func(b *testing.B) { benchKernel(b, p, cc.RefJob()) })
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) { benchKernel(b, p, cc.JobShards(k)) })
	}
}

func BenchmarkKernelPageRank(b *testing.B) {
	g := gen.PowerLaw(40000, 8, 2.1, false, 5)
	p := benchFragment(b, g)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			benchKernel(b, p, pagerank.Job(pagerank.Config{Tol: 1e-4, Shards: k}))
		})
	}
}

// BenchmarkMultiJob runs the served batch shape through the engine: a
// k-lane MultiJob over an 8-fragment hash partition of the 30k-vertex
// power-law graph. allocs/op is the per-run allocation count the
// message and result paths are held to; msgs/op is the message count
// those allocations would scale with if either path allocated per
// message.
func BenchmarkMultiJob(b *testing.B) {
	g := gen.PowerLaw(30000, 8, 2.1, true, 1)
	p, err := partition.Build(g, 8, partition.Hash{})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 8} {
		srcs := make([]graph.VertexID, k)
		for l := range srcs {
			srcs[l] = graph.VertexID(l * 3001)
		}
		job := sssp.MultiJob(sssp.MultiConfig{Sources: srcs})
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(p, job, core.Options{Mode: core.AAP})
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Stats.TotalMsgs
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}
