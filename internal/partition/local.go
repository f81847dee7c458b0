// The fragment-local CSR: each owned row's out-targets pre-translated to
// local slots at Build, so kernels index their per-slot state arrays
// straight from the edge loop instead of resolving a global vertex id
// per relaxed edge.
//
// Rows reuse the global CSR's offsets: owned row s spans
// [OutSpan(Lo, Lo+s), OutSpan(Lo, Lo+s+1)) of the fragment's targets,
// the same positions its edges occupy in G.Out and G.OutWeights, so the
// local CSR adds no offsets array and no weight copy — 4 bytes per
// stored out-edge and nothing length-n.
package partition

// buildLocal fills f's local targets from its sorted copy set f.Out.
// slotOf is the calling goroutine's length-n scratch: every foreign
// target of an owned row is in f.Out by definition of F.O, so each
// entry read below was written for this fragment first, and entries a
// previous fragment left behind are never read — the scratch needs no
// reset between fragments.
func (f *Fragment) buildLocal(slotOf []int32) {
	g := f.p.G
	base := int32(f.NumOwned())
	for i, u := range f.Out {
		slotOf[u] = base + int32(i)
	}
	local := make([]int32, g.OutSpan(f.Lo, f.Hi))
	k := 0
	for v := f.Lo; v < f.Hi; v++ {
		for _, u := range g.Out(v) {
			if u >= f.Lo && u < f.Hi {
				local[k] = u - f.Lo
			} else {
				local[k] = slotOf[u]
			}
			k++
		}
	}
	f.local = local
}

// LocalOut returns the out-targets of owned slot s as local slots:
// LocalOut(s)[i] == Slot(G.Out(Lo+s)[i]), always a valid slot (owned
// targets first, F.O copies after), and the edge weights stay
// G.OutWeights(Lo+s)[i]. The slice aliases the fragment's storage and
// must not be modified.
func (f *Fragment) LocalOut(s int32) []int32 {
	g := f.p.G
	v := f.Lo + s
	lo := g.OutSpan(f.Lo, v)
	return f.local[lo : lo+int64(g.OutDegree(v))]
}

// SlotTableBytes reports the resident size of the fragment-local CSR
// targets, 4 bytes per stored out-edge.
func (p *Partitioned) SlotTableBytes() int64 {
	var total int64
	for _, f := range p.Frags {
		total += int64(len(f.local)) * 4
	}
	return total
}

// RoutingTableBytes reports the resident size of all routing
// structures: the dense owner array and CSR holder index plus
// SlotTableBytes.
func (p *Partitioned) RoutingTableBytes() int64 {
	total := int64(len(p.owner)) * 4
	total += int64(len(p.holderOff))*4 + int64(len(p.holderDat))*4
	return total + p.SlotTableBytes()
}
