package pagerank

// The retained sequential PageRank kernel: the pinned reference of the
// differential tests. It implements the round-based semantics of the
// compute plane with plain loops — first consume the sorted frontier in
// slot order (fold pending deltas into scores), then walk it again in
// the same order pushing each share directly — so it is the "one-shard
// execution" the parallel kernel must reproduce bit for bit. The two
// passes matter: consuming everything before pushing anything means a
// frontier member's x never includes same-round contributions, which is
// the property that lets the parallel kernel apply its staged buckets
// after a barrier and land on identical bits.
//
// Note on lineage: before the parallel compute plane this package used a
// coalescing FIFO push queue. Floating-point sums depend on addition
// order, so a FIFO-order kernel cannot be reproduced by any parallel
// schedule; the round-based formulation was adopted for both kernels
// precisely because its contribution order (frontier slot order × edge
// order) is canonical. Both formulations park the same sub-Tol residual
// mass, so accuracy bounds are unchanged.

import (
	"slices"

	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/partition"
)

// contrib is one pushed share staged between the parallel kernel's
// sweep and apply phases (pagerank.go); the sequential reference pushes
// directly and never materializes it.
type contrib struct {
	slot int32
	val  float64
}

// refProgram holds per-slot scores and pending deltas. Copies (F.O
// slots) only accumulate deltas destined for other fragments.
type refProgram struct {
	f   *partition.Fragment
	g   *graph.Graph
	cfg Config

	score    []float64
	delta    []float64
	inQ      []bool
	frontier []int32 // owned slots above Tol, sorted, consumed per round
	next     []int32
	xs       []float64 // consumed pending mass, parallel to frontier
	rounds   int
}

func newRefProgram(f *partition.Fragment, cfg Config) *refProgram {
	n := f.Slots()
	return &refProgram{
		f: f, g: f.Graph(), cfg: cfg,
		score: make([]float64, n),
		delta: make([]float64, n),
		inQ:   make([]bool, n),
	}
}

// KernelRounds reports frontier rounds executed so far.
func (p *refProgram) KernelRounds() int { return p.rounds }

// PEval seeds every owned vertex with the teleport mass 1-d and runs
// rounds to the local fixpoint; accumulated copy deltas are shipped to
// their owners.
func (p *refProgram) PEval(ctx *core.Context[float64]) {
	seed := 1 - p.cfg.Damping
	for s := int32(0); s < int32(p.f.NumOwned()); s++ {
		p.add(s, seed)
	}
	p.run(ctx)
	p.flush(ctx)
}

// IncEval folds incoming delta sums into owned vertices and resumes the
// rounds.
func (p *refProgram) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.add(s, m.Val)
		}
	}
	p.run(ctx)
	p.flush(ctx)
}

// Get returns the score of owned vertex v including its parked residual,
// which tightens the result by the sub-threshold mass.
func (p *refProgram) Get(v int32) float64 {
	s := p.f.Slot(v)
	return p.score[s] + p.delta[s]
}

// add accumulates a delta on local slot s and admits owned slots to the
// next frontier when their pending mass crosses the propagation
// threshold.
func (p *refProgram) add(s int32, d float64) {
	p.delta[s] += d
	if s < int32(p.f.NumOwned()) && !p.inQ[s] && p.delta[s] > p.cfg.Tol {
		p.inQ[s] = true
		p.next = append(p.next, s)
	}
}

// run executes rounds until the frontier drains: consume the sorted
// frontier in slot order, then push each share directly in that same
// order.
func (p *refProgram) run(ctx *core.Context[float64]) {
	for len(p.next) > 0 {
		p.rounds++
		p.frontier = append(p.frontier[:0], p.next...)
		p.next = p.next[:0]
		slices.Sort(p.frontier)
		xs := p.xs[:0]
		for _, s := range p.frontier {
			p.inQ[s] = false
			x := p.delta[s]
			p.delta[s] = 0
			p.score[s] += x
			xs = append(xs, x)
		}
		p.xs = xs
		var work int
		for i, s := range p.frontier {
			out := p.f.LocalOut(s)
			work += len(out) + 1
			if len(out) == 0 {
				continue
			}
			share := p.cfg.Damping * xs[i] / float64(len(out))
			for _, us := range out {
				p.add(us, share)
			}
		}
		ctx.AddWork(work)
	}
}

// flush ships the accumulated copy deltas to their owners and resets
// them.
func (p *refProgram) flush(ctx *core.Context[float64]) {
	base := int32(p.f.NumOwned())
	for i, v := range p.f.Out {
		s := base + int32(i)
		if p.delta[s] > 0 {
			ctx.Send(v, p.delta[s])
			p.delta[s] = 0
		}
	}
}
