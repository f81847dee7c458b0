package algo_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// incEvalCounter wraps a Program and counts the IncEval calls that
// received messages, so a test can prove the incremental half of a
// kernel actually ran.
type incEvalCounter[T any] struct {
	core.Program[T]
	calls *atomic.Int64
}

func (c incEvalCounter[T]) IncEval(msgs []core.VMsg[T], ctx *core.Context[T]) {
	if len(msgs) > 0 {
		c.calls.Add(1)
	}
	c.Program.IncEval(msgs, ctx)
}

// TestSSSPKernelsMatchDijkstra is the explicit-kernel differential
// table: every SSSP kernel (the sequential reference, the frontier
// sweep, the delta-stepping buckets) at every forced shard count, run
// through the concurrent engine on multi-fragment partitions, must
// reproduce ref.SSSP bit for bit — and each kernel's IncEval must have
// processed incoming messages, so the table pins the incremental step
// and not just PEval.
func TestSSSPKernelsMatchDijkstra(t *testing.T) {
	kernels := []struct {
		name string
		kind sssp.KernelKind
	}{
		{"ref", sssp.KernelRef},
		{"frontier", sssp.KernelFrontier},
		{"buckets", sssp.KernelBuckets},
	}
	graphs := map[string]*graph.Graph{
		"powerlaw": gen.PowerLaw(500, 5, 2.1, true, 19),
		"roadnet":  gen.RoadNet(20, 20, 23),
		"grid":     gen.Grid(16, 16, 29),
	}
	for gname, g := range graphs {
		p, err := partition.Build(g, 4, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		const src = graph.VertexID(0)
		dist := ref.SSSP(g, src)
		want := make([]float64, p.G.NumVertices())
		for v := range want {
			orig, _ := g.IndexOf(p.G.IDOf(int32(v)))
			want[v] = dist[orig]
		}
		for _, k := range kernels {
			for _, shards := range kernelShardCounts {
				tag := fmt.Sprintf("%s/%s/shards=%d", gname, k.name, shards)
				var calls atomic.Int64
				job := sssp.JobConfig(sssp.Config{Source: src, Kernel: k.kind, Shards: shards})
				newProg := job.New
				job.New = func(f *partition.Fragment) core.Program[float64] {
					return incEvalCounter[float64]{newProg(f), &calls}
				}
				res, err := core.Run(p, job, core.Options{Mode: core.AAP})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				bitsEqualF64(t, tag, res.Values, want)
				if calls.Load() == 0 {
					t.Fatalf("%s: IncEval never received messages", tag)
				}
			}
		}
	}
}
