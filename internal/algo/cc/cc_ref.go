package cc

// The retained sequential CC kernel: a union-find forest over local
// slots built in PEval, with root cids lowered incrementally. It is the
// pinned reference of the differential tests — both kernels converge to
// the canonical labeling (minimum external id per component, an exact
// int64 min), so the hook-and-shortcut parallel kernel must match it bit
// for bit — and the path the auto heuristic picks for small fragments.

import (
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// refProgram keeps the local component forest: a union-find over local
// slots whose roots carry the component's cid (the paper's root nodes
// v_c), plus the precomputed list of F.O copies per root used to
// propagate cid decreases outward.
type refProgram struct {
	f *partition.Fragment
	g *graph.Graph

	parent []int32 // union-find over local slots
	cid    []int64 // per root: minimum external id seen

	// copiesOf lists, for each root slot, the F.O copies linked to it;
	// the local forest is fixed after PEval (no new local edges appear),
	// so the lists are computed once.
	copiesOf [][]int32

	// changedRoots/rootChanged are the reusable scratch IncEval uses to
	// dedup lowered roots, replacing a per-round map.
	changedRoots []int32
	rootChanged  []bool
}

func newRefProgram(f *partition.Fragment) *refProgram {
	n := f.Slots()
	p := &refProgram{f: f, g: f.Graph(),
		parent:      make([]int32, n),
		cid:         make([]int64, n),
		rootChanged: make([]bool, n),
	}
	for i := range p.parent {
		p.parent[i] = int32(i)
	}
	return p
}

func (p *refProgram) find(s int32) int32 {
	for p.parent[s] != s {
		p.parent[s] = p.parent[p.parent[s]]
		s = p.parent[s]
	}
	return s
}

func (p *refProgram) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra != rb {
		p.parent[ra] = rb
	}
}

// PEval computes local components over the edges of owned vertices (both
// directions, underlying undirected graph), assigns each root the minimum
// external id, and ships the cids of F.O copies to their owners.
func (p *refProgram) PEval(ctx *core.Context[int64]) {
	f := p.f
	for vs := int32(0); vs < int32(f.NumOwned()); vs++ {
		for _, us := range f.LocalOut(vs) {
			p.union(vs, us)
		}
		forInSlots(f, vs, func(us int32) { p.union(vs, us) })
		v := f.Lo + vs
		ctx.AddWork(p.g.OutDegree(v) + p.g.InDegree(v))
	}
	// Root cids: the minimum external id over the component's members.
	for i := range p.cid {
		p.cid[i] = int64(1) << 62
	}
	owned := int32(f.NumOwned())
	assign := func(s, v int32) {
		r := p.find(s)
		if id := int64(p.g.IDOf(v)); id < p.cid[r] {
			p.cid[r] = id
		}
	}
	for s := int32(0); s < owned; s++ {
		assign(s, f.Lo+s)
	}
	for i, v := range f.Out {
		assign(owned+int32(i), v)
	}
	p.linkCopies()
	for i, v := range f.Out {
		ctx.Send(v, p.cid[p.find(owned+int32(i))])
	}
}

// linkCopies lists each root's F.O copies, once and for all: the local
// forest is fixed after PEval.
func (p *refProgram) linkCopies() {
	owned := int32(p.f.NumOwned())
	p.copiesOf = make([][]int32, p.f.Slots())
	for i, v := range p.f.Out {
		r := p.find(owned + int32(i))
		p.copiesOf[r] = append(p.copiesOf[r], v)
	}
}

// IncEval lowers root cids from the aggregated messages and propagates
// every decrease to the owners of the copies linked to the changed roots
// — the bounded incremental step of Figure 3.
func (p *refProgram) IncEval(msgs []core.VMsg[int64], ctx *core.Context[int64]) {
	for _, m := range msgs {
		slot := p.f.Slot(m.V)
		if slot < 0 {
			continue
		}
		r := p.find(slot)
		if m.Val < p.cid[r] {
			p.cid[r] = m.Val
			if !p.rootChanged[r] {
				p.rootChanged[r] = true
				p.changedRoots = append(p.changedRoots, r)
			}
		}
	}
	ctx.AddWork(len(msgs))
	for _, r := range p.changedRoots {
		p.rootChanged[r] = false
		copies := p.copiesOf[r]
		ctx.AddWork(len(copies))
		for _, v := range copies {
			ctx.Send(v, p.cid[r])
		}
	}
	p.changedRoots = p.changedRoots[:0]
}

// Get returns the cid of owned vertex v.
func (p *refProgram) Get(v int32) int64 { return p.cid[p.find(p.f.Slot(v))] }
