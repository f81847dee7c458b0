package partition_test

import (
	"math"
	"sync"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// TestFragmentWeights: each fragment's summary matches a direct scan of
// its owned rows — mean, dispersion and the first weight that is not
// positive and finite — and concurrent first calls agree.
func TestFragmentWeights(t *testing.T) {
	clean := gen.Random(300, 1500, true, 9)
	b := graph.NewBuilder(true)
	clean.Edges(func(src, dst int32, w float64) {
		b.AddWeightedEdge(clean.IDOf(src), clean.IDOf(dst), w)
	})
	for i, w := range []float64{0, -2, math.NaN(), math.Inf(1)} {
		b.AddWeightedEdge(graph.VertexID(40*i+7), graph.VertexID(40*i+8), w)
	}
	for _, g := range []*graph.Graph{clean, b.Build(), gen.PowerLaw(300, 4, 2.1, false, 9)} {
		p, err := partition.Build(g, 5, partition.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([][]partition.WeightSummary, 4)
		for c := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, f := range p.Frags {
					got[c] = append(got[c], f.Weights())
				}
			}()
		}
		wg.Wait()
		for i, f := range p.Frags {
			want := scanWeights(f)
			if want.BadRow >= 0 { // the moments of a bad fragment are never read
				want.Mean, want.Disp = 0, 0
			}
			for c := range got {
				ws := got[c][i]
				if want.BadRow >= 0 {
					ws.Mean, ws.Disp = 0, 0
				}
				if ws != want {
					t.Fatalf("fragment %d, caller %d: got %+v, want %+v", i, c, ws, want)
				}
			}
		}
	}
}

// scanWeights is the direct two-pass reference of Fragment.Weights.
func scanWeights(f *partition.Fragment) partition.WeightSummary {
	ws := partition.WeightSummary{Mean: 1, BadRow: -1}
	g := f.Graph()
	if !g.Weighted() {
		return ws
	}
	var all []float64
	for v := f.Lo; v < f.Hi; v++ {
		for i, w := range g.OutWeights(v) {
			if ws.BadRow < 0 && (w <= 0 || math.IsNaN(w) || math.IsInf(w, 0)) {
				ws.BadRow, ws.BadIndex = v, i
			}
			all = append(all, w)
		}
	}
	var sum, sumSq float64
	for _, w := range all {
		sum += w
		sumSq += w * w
	}
	if len(all) == 0 || !(sum > 0) {
		return ws
	}
	ws.Mean = sum / float64(len(all))
	ws.Disp = math.Sqrt(max(sumSq/float64(len(all))-ws.Mean*ws.Mean, 0)) / ws.Mean
	return ws
}
