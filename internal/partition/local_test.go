package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"aap/internal/gen"
	"aap/internal/graph"
)

// localCSRInputs are the graphs the local-CSR tests partition: random
// directed and undirected graphs with self-loops and parallel edges
// (the Builder keeps both), a weighted power-law graph, and a graph
// smaller than the largest fragment count so some fragments are empty.
func localCSRInputs() map[string]*graph.Graph {
	messy := func(directed bool, n, m int, seed int64) *graph.Graph {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(directed)
		for v := 0; v < n; v++ {
			b.AddVertex(graph.VertexID(v))
		}
		for i := 0; i < m; i++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			switch rng.Intn(8) {
			case 0:
				v = u // self-loop
			case 1:
				b.AddEdge(u, v) // parallel edge
			}
			b.AddEdge(u, v)
		}
		return b.Build()
	}
	return map[string]*graph.Graph{
		"directed":   messy(true, 300, 2000, 3),
		"undirected": messy(false, 300, 1500, 4),
		"powerlaw":   gen.PowerLaw(400, 6, 2.1, true, 5),
		"tiny":       messy(true, 12, 30, 6), // m=32 leaves fragments empty
	}
}

// TestLocalCSRMatchesSlot checks the fragment-local CSR against Slot on
// every owned edge, across strategies and fragment counts: each local
// target is the slot of the global target at the same position, always
// valid, and the local targets cost exactly 4 bytes per stored
// out-edge.
func TestLocalCSRMatchesSlot(t *testing.T) {
	strategies := []Strategy{Hash{}, Range{}, BFSLocality{Seed: 5}, Skewed{Ratio: 4, Seed: 5}}
	for name, g := range localCSRInputs() {
		for _, m := range []int{1, 3, 8, 32} {
			for _, s := range strategies {
				tag := fmt.Sprintf("%s/%s/m=%d", name, s.Name(), m)
				p, err := Build(g, m, s)
				if err != nil {
					t.Fatal(err)
				}
				var span int64
				for _, f := range p.Frags {
					span += p.G.OutSpan(f.Lo, f.Hi)
					for s := int32(0); s < int32(f.NumOwned()); s++ {
						out := p.G.Out(f.Lo + s)
						local := f.LocalOut(s)
						if len(local) != len(out) {
							t.Fatalf("%s: frag %d slot %d: %d local targets, %d global", tag, f.ID, s, len(local), len(out))
						}
						for i, u := range out {
							want := f.Slot(u)
							if want < 0 || local[i] != want {
								t.Fatalf("%s: frag %d slot %d edge %d: LocalOut = %d, Slot(%d) = %d",
									tag, f.ID, s, i, local[i], u, want)
							}
						}
					}
				}
				if got := p.SlotTableBytes(); got != 4*span {
					t.Fatalf("%s: SlotTableBytes = %d, want 4·ΣOutSpan = %d", tag, got, 4*span)
				}
				if p.RoutingTableBytes() <= p.SlotTableBytes() && p.G.NumVertices() > 0 {
					t.Fatalf("%s: RoutingTableBytes must add the owner and holder structures", tag)
				}
			}
		}
	}
}

// TestOwnerAndSlotMatchReference verifies, on partitioned random graphs
// across strategies and fragment counts, that Owner/Slot/OutSlot agree
// with the reference lookups: binary search over Ranges for Owner, and
// the F.O map reconstructed from each fragment's border set for
// Slot/OutSlot — including synthetic ids outside the vertex range,
// which resolve to -1.
func TestOwnerAndSlotMatchReference(t *testing.T) {
	for _, m := range []int{1, 3, 8} {
		for _, s := range []Strategy{Hash{}, Range{}, BFSLocality{Seed: 5}, Skewed{Ratio: 4, Seed: 5}} {
			g := gen.Random(500, 3000, false, 11)
			p, err := Build(g, m, s)
			if err != nil {
				t.Fatal(err)
			}
			n := int32(p.G.NumVertices())
			for v := int32(-3); v < n+3; v++ {
				if got, want := p.Owner(v), p.ownerSearch(v); got != want {
					t.Fatalf("%s/m=%d: Owner(%d) = %d, search says %d", s.Name(), m, v, got, want)
				}
			}
			for _, f := range p.Frags {
				// Reference slot map: owned range then F.O copies in order.
				ref := make(map[int32]int32)
				for v := f.Lo; v < f.Hi; v++ {
					ref[v] = v - f.Lo
				}
				base := int32(f.NumOwned())
				for s, v := range f.Out {
					ref[v] = base + int32(s)
				}
				for v := int32(-3); v < n+3; v++ {
					want, ok := ref[v]
					if !ok {
						want = -1
					}
					if got := f.Slot(v); got != want {
						t.Fatalf("%s/m=%d: frag %d Slot(%d) = %d, want %d", s.Name(), m, f.ID, v, got, want)
					}
					wantOut := int32(-1)
					if !f.Owns(v) && want >= 0 {
						wantOut = want - base
					}
					if got := f.OutSlot(v); got != wantOut {
						t.Fatalf("%s/m=%d: frag %d OutSlot(%d) = %d, want %d", s.Name(), m, f.ID, v, got, wantOut)
					}
				}
			}
		}
	}
}
