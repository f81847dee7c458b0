// Package pagerank is the PIE program for PageRank under AAP (Section 5.3
// of the paper): the delta-accumulative formulation where every vertex
// keeps a score P_v and a pending update x_v, PEval seeds x_v = 1-d,
// local evaluation pushes d*x_v/N_v along out-edges, and sum is the
// aggregate function over the deltas shipped to border vertices. The
// fixpoint P_v = Σ_paths p(v) + (1-d) is order-independent, so PageRank
// needs no bounded staleness (Church-Rosser holds under T1-T3).
//
// The kernel is round-based and deterministic by construction, because
// floating-point sums remember their addition order: each round consumes
// the frontier (owned slots whose pending delta crossed Tol) in sorted
// slot order and applies the pushed shares in that same canonical order.
// A one-shard round pushes each share directly: it is the sequential
// reference. A multi-shard round shards the sweep into contiguous
// frontier chunks and stages each chunk's shares into per-(source-shard,
// dest-shard) buckets; the apply phase walks every destination shard's
// buckets in source-shard order, which replays the exact per-slot
// addition sequence of the one-shard round — bit-identical results at
// any shard count.
package pagerank

import (
	"slices"

	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/graph"
	"aap/internal/par"
	"aap/internal/partition"
)

// Config parameterizes the PageRank job.
type Config struct {
	// Damping is the damping factor d; 0.85 when zero.
	Damping float64
	// Tol is the residual threshold below which a pending delta is
	// parked instead of propagated; 1e-6 when zero. The total parked
	// residual bounds the L1 error of the fixpoint.
	Tol float64
	// Shards forces the kernel shard count of every round: >= 1 runs
	// each round with exactly that many shards, and 1 runs every round
	// sequentially — the reference the differential tests compare
	// against. 0 picks per round from the round's edge span.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	return c
}

// Job builds the PageRank PIE job.
func Job(cfg Config) core.Job[float64] {
	cfg = cfg.withDefaults()
	return core.Job[float64]{
		Name:      "pagerank",
		New:       func(f *partition.Fragment) core.Program[float64] { return newProgram(f, cfg) },
		Aggregate: func(a, b float64) float64 { return a + b },
		Bytes:     func(float64) int { return 8 },
		EncodeVal: codec.AppendFloat64,
		DecodeVal: (*codec.Reader).Float64,
	}
}

// contrib is one pushed share staged between a multi-shard round's
// sweep and apply phases.
type contrib struct {
	slot int32
	val  float64
}

// program holds per-slot scores and pending deltas; copies (F.O slots)
// only accumulate deltas destined for other fragments. Every array is a
// plain slice: each phase partitions its writes (frontier chunks own
// their consumed slots, destination shards own their bucket columns)
// and par.Do's barrier orders the phases, so nothing needs atomics.
type program struct {
	f   *partition.Fragment
	g   *graph.Graph
	cfg Config

	score []float64
	delta []float64

	// inQ flags the owned slots admitted above Tol for the next round,
	// and next[w] lists the ones shard w admitted. advance splices and
	// sorts the lists at each round start, which makes the consume
	// order canonical for any shard count.
	inQ      []bool
	next     [][]int32
	frontier []int32
	buckets  [][]contrib // (source shard × dest shard) share staging
	xs       []float64   // consumed pending mass of a one-shard round
	bounds   []int
	work     []int64
	rounds   int
}

func newProgram(f *partition.Fragment, cfg Config) *program {
	n := f.Slots()
	return &program{
		f: f, g: f.Graph(), cfg: cfg,
		score: make([]float64, n),
		delta: make([]float64, n),
		inQ:   make([]bool, f.NumOwned()),
		next:  make([][]int32, 1),
	}
}

// KernelRounds reports frontier rounds executed so far.
func (p *program) KernelRounds() int { return p.rounds }

// PEval seeds every owned vertex with the teleport mass 1-d, runs rounds
// to the local fixpoint, and ships accumulated copy deltas.
func (p *program) PEval(ctx *core.Context[float64]) {
	seed := 1 - p.cfg.Damping
	for s := int32(0); s < int32(p.f.NumOwned()); s++ {
		p.add(s, seed)
	}
	p.run(ctx)
	p.flush(ctx)
}

// IncEval folds incoming delta sums into owned vertices (sequentially —
// the folded message list is small and already in canonical vertex
// order) and resumes the rounds.
func (p *program) IncEval(msgs []core.VMsg[float64], ctx *core.Context[float64]) {
	for _, m := range msgs {
		if s := p.f.Slot(m.V); s >= 0 {
			p.add(s, m.Val)
		}
	}
	p.run(ctx)
	p.flush(ctx)
}

// Get returns the score of owned vertex v including its parked residual.
func (p *program) Get(v int32) float64 {
	s := p.f.Slot(v)
	return p.score[s] + p.delta[s]
}

// add accumulates a delta on local slot s and admits it on shard 0
// (sequential callers only).
func (p *program) add(s int32, d float64) {
	p.delta[s] += d
	p.admit(0, s)
}

// admit stages slot s on shard w's list for the next round if s is
// owned, not yet admitted, and its pending mass is above Tol. Only the
// one shard that may write s calls it, so the flag needs no atomics.
func (p *program) admit(w int, s int32) {
	if int(s) < len(p.inQ) && !p.inQ[s] && p.delta[s] > p.cfg.Tol {
		p.inQ[s] = true
		p.next[w] = append(p.next[w], s)
	}
}

// advance splices the shard lists into the sorted frontier of the next
// round and clears the frontier's admission flags.
func (p *program) advance() []int32 {
	fr := p.frontier[:0]
	for w, l := range p.next {
		fr = append(fr, l...)
		p.next[w] = l[:0]
	}
	slices.Sort(fr)
	for _, s := range fr {
		p.inQ[s] = false
	}
	p.frontier = fr
	return fr
}

// run executes rounds until the frontier drains. A one-shard round is
// runSeqRound; a multi-shard round has two barrier-separated parallel
// phases:
//
//	sweep  — frontier chunk w consumes its slots in order (score += x,
//	         delta = 0) and stages each pushed share into bucket (w, d)
//	         where d = ⌊slot·k/n⌋ keys the destination shard;
//	apply  — destination shard d applies buckets (0,d), (1,d), …, (k-1,d)
//	         sequentially, so the additions landing on any slot replay
//	         the frontier-order sequence of the one-shard round.
//
// advance clears the frontier's admission flags before any slot is
// consumed, and admissions only ever happen while pushing (the apply
// phase, or runSeqRound's second pass), after every frontier slot has
// been consumed.
func (p *program) run(ctx *core.Context[float64]) {
	n := len(p.delta)
	deg := func(s int32) int64 { return int64(p.g.OutDegree(p.f.Lo+s)) + 1 }
	for {
		frontier := p.advance()
		if len(frontier) == 0 {
			return
		}
		p.rounds++

		k := p.cfg.Shards
		if k == 0 {
			var span int64
			for _, s := range frontier {
				span += deg(s)
			}
			k = par.Kernel(span)
		}
		if k <= 1 {
			p.runSeqRound(frontier, ctx)
			continue
		}
		for len(p.next) < k {
			p.next = append(p.next, nil)
		}
		p.bounds = par.ChunksByWork(frontier, k, p.bounds, deg)
		for len(p.buckets) < k*k {
			p.buckets = append(p.buckets, nil)
		}
		if cap(p.work) < k {
			p.work = make([]int64, k)
		}
		work := p.work[:k]

		// Sweep phase: chunk w writes only its consumed slots and its
		// own bucket row.
		par.Do(k, func(w int) {
			var units int64
			row := p.buckets[w*k : w*k+k]
			for d := range row {
				row[d] = row[d][:0]
			}
			for _, s := range frontier[p.bounds[w]:p.bounds[w+1]] {
				x := p.delta[s]
				p.delta[s] = 0
				p.score[s] += x
				out := p.f.LocalOut(s)
				units += int64(len(out)) + 1
				if len(out) == 0 {
					continue
				}
				share := p.cfg.Damping * x / float64(len(out))
				for _, us := range out {
					d := int(us) * k / n
					row[d] = append(row[d], contrib{slot: us, val: share})
				}
			}
			work[w] = units
		})
		var units int64
		for _, u := range work {
			units += u
		}
		ctx.AddWork(int(units))

		// Apply phase: all contributions for a slot land in the single
		// bucket column d = ⌊slot·k/n⌋, so shard d is the only writer of
		// that slot — that keying, not a contiguous range split, is the
		// write-disjointness invariant. Walking the column in source
		// order replays the sequential addition sequence.
		par.Do(k, func(d int) {
			for w := 0; w < k; w++ {
				for _, c := range p.buckets[w*k+d] {
					p.delta[c.slot] += c.val
					p.admit(d, c.slot)
				}
			}
		})
	}
}

// runSeqRound is the one-shard round and the sequential reference:
// consume the sorted frontier in slot order (fold pending deltas into
// scores), then walk it again in the same order pushing each share
// directly. The two passes matter: consuming everything before pushing
// anything means a frontier member's consumed mass never includes
// same-round contributions, which is what lets the staged round apply
// its buckets after a barrier and land on identical bits.
func (p *program) runSeqRound(frontier []int32, ctx *core.Context[float64]) {
	xs := p.xs[:0]
	for _, s := range frontier {
		x := p.delta[s]
		p.delta[s] = 0
		p.score[s] += x
		xs = append(xs, x)
	}
	p.xs = xs
	var work int64
	for i, s := range frontier {
		out := p.f.LocalOut(s)
		work += int64(len(out)) + 1
		if len(out) == 0 {
			continue
		}
		share := p.cfg.Damping * xs[i] / float64(len(out))
		for _, us := range out {
			p.delta[us] += share
			p.admit(0, us)
		}
	}
	ctx.AddWork(int(work))
}

// flush ships the accumulated copy deltas to their owners and resets
// them.
func (p *program) flush(ctx *core.Context[float64]) {
	base := int32(p.f.NumOwned())
	for i, v := range p.f.Out {
		s := base + int32(i)
		if p.delta[s] > 0 {
			ctx.Send(v, p.delta[s])
			p.delta[s] = 0
		}
	}
}
