package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"aap/internal/graph"
)

// PageRank acceptance against ref.PageRank. The engine parks residuals
// below its Tol (1e-4) instead of propagating them, so it stops short of
// the reference's fixpoint by at most the parked mass: per vertex the
// gap stays below prRel of the reference score (scores are at least
// 1-d = 0.15), and the total mass matches the reference's within
// prMassRel. The mass is not n: the paper's formulation drops the rank
// of vertices without out-edges, and the reference does the same.
const (
	prRel     = 5e-3
	prMassRel = 2e-3
)

// refOrder maps index v of a vertex order named by ids to the index of
// the same external id in the reference graph, so answers are matched by
// external id however the program numbered its vertices.
func refOrder(n int, ids func(v int) graph.VertexID, ref *graph.Graph) ([]int32, error) {
	if n != ref.NumVertices() {
		return nil, fmt.Errorf("answer covers %d vertices, reference graph has %d", n, ref.NumVertices())
	}
	order := make([]int32, n)
	for v := range order {
		j, ok := ref.IndexOf(ids(v))
		if !ok {
			return nil, fmt.Errorf("vertex id %d is not in the reference graph", ids(v))
		}
		order[v] = j
	}
	return order, nil
}

// inOrder rearranges a reference answer into the program's vertex order.
func inOrder(want []float64, order []int32) []float64 {
	out := make([]float64, len(order))
	for v, j := range order {
		out[v] = want[j]
	}
	return out
}

// digest hashes the exact bits of a vector: two vectors with the same
// digest are bit-identical (up to a 2^-64 collision).
func digest(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkSSSP requires got to be bit-identical to the reference distances
// want (reference order), matched through order.
func checkSSSP(got, want []float64, order []int32) error {
	if len(got) != len(order) {
		return fmt.Errorf("sssp: %d distances, want %d", len(got), len(order))
	}
	for v, j := range order {
		if math.Float64bits(got[v]) != math.Float64bits(want[j]) {
			return fmt.Errorf("sssp: vertex index %d: got %v, reference %v", v, got[v], want[j])
		}
	}
	return nil
}

// checkPageRank requires got to be within prRel of the reference per
// vertex, relative to the reference score, and its total mass within
// prMassRel of the reference's.
func checkPageRank(got, want []float64, order []int32) error {
	if len(got) != len(order) {
		return fmt.Errorf("pagerank: %d scores, want %d", len(got), len(order))
	}
	var mg, mw float64
	for v, j := range order {
		if d := relDiff(got[v], want[j]); !(d <= prRel) {
			return fmt.Errorf("pagerank: vertex index %d: got %v, reference %v", v, got[v], want[j])
		}
		mg += got[v]
		mw += want[j]
	}
	if d := math.Abs(mg-mw) / mw; !(d <= prMassRel) {
		return fmt.Errorf("pagerank: mass %v, reference %v", mg, mw)
	}
	return nil
}

func relDiff(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
}

// prGap is the largest per-vertex relative gap between got and the
// reference and the relative gap of the total mass; reported so the
// tolerances above can be judged.
func prGap(got, want []float64, order []int32) (vertex, mass float64) {
	var mg, mw float64
	for v, j := range order {
		vertex = math.Max(vertex, relDiff(got[v], want[j]))
		mg += got[v]
		mw += want[j]
	}
	return vertex, relDiff(mg, mw)
}
