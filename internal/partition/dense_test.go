package partition

import (
	"testing"

	"aap/internal/gen"
)

// checkSlotSizeRule pins the per-fragment representation choice: each
// fragment's slot table costs exactly the smaller of the dense array
// (4·n bytes) and the copy table (8 bytes per entry over the smallest
// power of two, at least 8, that is ≥ 2·|F.O|; none for an empty F.O),
// with the dense array taken only when strictly smaller. It returns
// how many fragments went dense.
func checkSlotSizeRule(t *testing.T, tag string, p *Partitioned) int {
	t.Helper()
	n := int64(p.G.NumVertices())
	dense := 0
	for _, f := range p.Frags {
		var table int64
		if len(f.Out) > 0 {
			table = 8
			for table < 2*int64(len(f.Out)) {
				table *= 2
			}
		}
		wantDense := 4*n < 8*table
		want := min(4*n, 8*table)
		if got := f.slotBytes(); got != want {
			t.Fatalf("%s: frag %d slot table %d bytes, want min(dense %d, copy table %d) = %d",
				tag, f.ID, got, 4*n, 8*table, want)
		}
		if (f.slot != nil) != wantDense {
			t.Fatalf("%s: frag %d dense = %v, want %v", tag, f.ID, f.slot != nil, wantDense)
		}
		if wantDense {
			dense++
		}
	}
	if got := p.DenseSlotFragments(); got != dense {
		t.Fatalf("%s: DenseSlotFragments = %d, want %d", tag, got, dense)
	}
	return dense
}

// TestDenseTablesMatchReference verifies, on partitioned random graphs
// across strategies and fragment counts, that Owner/Slot/OutSlot agree
// with the reference lookups they replaced: binary search over Ranges
// for Owner, and the F.O map reconstructed from each fragment's border
// set for Slot/OutSlot. The inputs cover both slot representations,
// which the test asserts.
func TestDenseTablesMatchReference(t *testing.T) {
	denseFrags, hybridFrags := 0, 0
	for _, m := range []int{1, 3, 8} {
		for _, s := range []Strategy{Hash{}, Range{}, BFSLocality{Seed: 5}, Skewed{Ratio: 4, Seed: 5}} {
			g := gen.Random(500, 3000, false, 11)
			p, err := Build(g, m, s)
			if err != nil {
				t.Fatal(err)
			}
			d := checkSlotSizeRule(t, s.Name(), p)
			denseFrags += d
			hybridFrags += m - d
			n := int32(p.G.NumVertices())
			// Out-of-range ids included: Owner must mirror the binary
			// search exactly, even for synthetic routing keys.
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
				// Synthetic ids well outside the vertex range resolve
				// to -1 on both representations.
				for v := int32(-3); v < n+3; v++ {
					want, ok := ref[v]
					if !ok {
						want = -1
					}
					if got := f.Slot(v); got != want {
						t.Fatalf("%s/m=%d: frag %d (dense=%v) Slot(%d) = %d, want %d",
							s.Name(), m, f.ID, f.slot != nil, v, got, want)
					}
					wantOut := int32(-1)
					if !f.Owns(v) && want >= 0 {
						wantOut = want - base
					}
					if got := f.OutSlot(v); got != wantOut {
						t.Fatalf("%s/m=%d: frag %d (dense=%v) OutSlot(%d) = %d, want %d",
							s.Name(), m, f.ID, f.slot != nil, v, got, wantOut)
					}
				}
			}
		}
	}
	if denseFrags == 0 || hybridFrags == 0 {
		t.Fatalf("inputs cover %d dense and %d hybrid fragments: want both representations", denseFrags, hybridFrags)
	}
}

// TestRoutingTableBytesHybridShrinks pins the memory claim on a
// locality partition: every fragment keeps the compact copy table, and
// the total is at least 4x below the n·m·4 bytes of dense arrays.
func TestRoutingTableBytesHybridShrinks(t *testing.T) {
	g := gen.Grid(100, 100, 3)
	const m = 16
	p, err := Build(g, m, BFSLocality{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d := checkSlotSizeRule(t, "grid/bfs", p); d != 0 {
		t.Fatalf("%d of %d fragments went dense on a locality partition, want 0", d, m)
	}
	hb, db := p.SlotTableBytes(), int64(g.NumVertices())*m*4
	if hb <= 0 {
		t.Fatalf("non-positive accounting: %d", hb)
	}
	if hb*4 > db {
		t.Fatalf("slot tables %d bytes, dense arrays %d bytes: expected ≥ 4x shrink on a locality partition", hb, db)
	}
	if p.RoutingTableBytes() <= hb {
		t.Fatal("RoutingTableBytes must include owner and holder structures on top of the slot tables")
	}
}

// TestHashPartitionGoesDense pins the other side of the rule: under a
// hash partition every fragment's copy set is large enough that the
// dense array is smaller, so the tables never exceed n·m·4 bytes.
func TestHashPartitionGoesDense(t *testing.T) {
	const n, m = 30000, 8
	g := gen.PowerLaw(n, 8, 2.1, true, 7)
	p, err := Build(g, m, Hash{})
	if err != nil {
		t.Fatal(err)
	}
	if d := checkSlotSizeRule(t, "powerlaw/hash", p); d != m {
		t.Fatalf("%d of %d fragments went dense on a hash partition, want all", d, m)
	}
	if b := p.SlotTableBytes(); b > n*m*4 {
		t.Fatalf("slot tables %d bytes, want ≤ %d", b, n*m*4)
	}
}
