// Per-fragment slot tables. Owned vertices always map arithmetically
// (v - Lo); the F.O copy set resolves through whichever of two tables is
// smaller for the fragment, chosen at Build from sizes already known:
//
//   - a dense length-n array (4·n bytes, one load per lookup), or
//   - a compact open-addressed table over F.O (8 bytes per entry, at
//     most half full).
//
// A hash partition gives every fragment a copy set comparable to n, so
// the dense array wins there; a locality partition keeps F.O small, so
// the compact table wins, cutting routing memory from O(n·m) to
// O(n + Σ|F.O|).
package partition

// flatSlots is an open-addressed global-vertex→slot table over a
// fragment's F.O copy set. Entries pack key<<32|slot; keys are global
// vertex indexes (< 2^31), so an all-ones entry is a safe empty marker.
type flatSlots struct {
	entries []uint64
	mask    uint32
}

const flatSlotsEmpty = ^uint64(0)

// newFlatSlots builds the table for the sorted copy set out, mapping
// out[s] to base+s — the same slot numbering the dense table records.
func newFlatSlots(out []int32, base int32) flatSlots {
	if len(out) == 0 {
		return flatSlots{}
	}
	size := flatSlotsSize(len(out))
	t := flatSlots{entries: make([]uint64, size), mask: uint32(size - 1)}
	for i := range t.entries {
		t.entries[i] = flatSlotsEmpty
	}
	for s, v := range out {
		i := t.hash(v)
		for t.entries[i] != flatSlotsEmpty {
			i = (i + 1) & t.mask
		}
		t.entries[i] = uint64(uint32(v))<<32 | uint64(uint32(base+int32(s)))
	}
	return t
}

// flatSlotsSize is the entry count of the copy table for k copies: the
// smallest power of two, at least 8, that keeps the table at most half
// full; zero for an empty copy set.
func flatSlotsSize(k int) int {
	if k == 0 {
		return 0
	}
	size := 8
	for size < k*2 {
		size <<= 1
	}
	return size
}

// buildSlots gives f the smaller of the two copy-slot tables for a graph
// of n vertices: the dense array when its 4·n bytes undercut the copy
// table's 8 bytes per entry. Copies take slots NumOwned()+s in F.O
// order under either representation.
func (f *Fragment) buildSlots(n int) {
	base := int32(f.NumOwned())
	if 4*n >= 8*flatSlotsSize(len(f.Out)) {
		f.copySlots = newFlatSlots(f.Out, base)
		return
	}
	f.slot = make([]int32, n)
	for v := range f.slot {
		f.slot[v] = -1
	}
	for s, v := range f.Out {
		f.slot[v] = base + int32(s)
	}
}

func (t *flatSlots) hash(v int32) uint32 {
	return (uint32(v) * 2654435769) & t.mask
}

// get returns the slot of global vertex v, or -1 when v is not a copy —
// including ids outside the graph's vertex range (synthetic routing
// keys never collide because absent keys terminate on an empty slot).
func (t *flatSlots) get(v int32) int32 {
	if t.entries == nil {
		return -1
	}
	i := t.hash(v)
	for {
		e := t.entries[i]
		if e == flatSlotsEmpty {
			return -1
		}
		if int32(e>>32) == v {
			return int32(uint32(e))
		}
		i = (i + 1) & t.mask
	}
}

// slotBytes is the resident size of f's copy-slot table.
func (f *Fragment) slotBytes() int64 {
	return int64(len(f.slot))*4 + int64(len(f.copySlots.entries))*8
}

// SlotTableBytes reports the resident size of the per-fragment slot
// tables alone.
func (p *Partitioned) SlotTableBytes() int64 {
	var total int64
	for _, f := range p.Frags {
		total += f.slotBytes()
	}
	return total
}

// DenseSlotFragments reports how many fragments chose the dense
// length-n slot array over the compact copy table.
func (p *Partitioned) DenseSlotFragments() int {
	n := 0
	for _, f := range p.Frags {
		if f.slot != nil {
			n++
		}
	}
	return n
}

// RoutingTableBytes reports the resident size of all routing
// structures: the dense owner array and CSR holder index plus
// SlotTableBytes.
func (p *Partitioned) RoutingTableBytes() int64 {
	total := int64(len(p.owner)) * 4
	total += int64(len(p.holderOff))*4 + int64(len(p.holderDat))*4
	return total + p.SlotTableBytes()
}
