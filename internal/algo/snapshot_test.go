package algo_test

// Checkpoint round trip for every core.Snapshotter kernel: a program
// restored from a snapshot taken at a round boundary must continue
// exactly like the program the snapshot came from.

import (
	"fmt"
	"math"
	"testing"

	"aap/internal/algo/cc"
	"aap/internal/algo/cf"
	"aap/internal/algo/pagerank"
	"aap/internal/algo/sssp"
	"aap/internal/codec"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// snapshotRounds caps the round boundaries each kernel is checked at.
const snapshotRounds = 6

// step runs one lock-step round of prog on f — PEval at round 0,
// otherwise IncEval over the folded msgs — and returns the outgoing
// messages per destination.
func step[T any](f *partition.Fragment, m int, job core.Job[T], prog core.Program[T], round int32, msgs []core.VMsg[T]) [][]core.VMsg[T] {
	ctx := core.NewEngineContext[T](f, m)
	ctx.SetRound(round)
	if round == 0 {
		prog.PEval(ctx)
	} else {
		prog.IncEval(core.NewFolder[T](f).Fold(msgs, job.Aggregate), ctx)
	}
	out, _ := ctx.TakeOut()
	return out
}

// cloneMsgs deep-copies msgs through the job's wire codec, so a program
// that updates a message value in place cannot reach the copy.
func cloneMsgs[T any](job core.Job[T], msgs []core.VMsg[T]) []core.VMsg[T] {
	out := make([]core.VMsg[T], len(msgs))
	for i, m := range msgs {
		m.Val = job.DecodeVal(codec.NewReader(job.EncodeVal(nil, m.Val)))
		out[i] = m
	}
	return out
}

// snapshotRoundTrip runs every fragment in lock step from PEval until
// no messages remain (at most snapshotRounds IncEval rounds). At every
// round boundary it snapshots each program, restores the snapshot into
// a fresh program, feeds both the same folded messages, and requires
// the same value on every owned vertex and the same outgoing messages.
func snapshotRoundTrip[T any](t *testing.T, name string, p *partition.Partitioned, job core.Job[T], same func(a, b T) bool) {
	t.Helper()
	progs := make([]core.Program[T], p.M)
	inbox := make([][]core.VMsg[T], p.M)
	for i, f := range p.Frags {
		progs[i] = job.New(f)
		for j, msgs := range step(f, p.M, job, progs[i], 0, nil) {
			inbox[j] = append(inbox[j], msgs...)
		}
	}
	round := int32(1)
	for ; round <= snapshotRounds; round++ {
		var inbound int
		for _, msgs := range inbox {
			inbound += len(msgs)
		}
		if inbound == 0 {
			break
		}
		next := make([][]core.VMsg[T], p.M)
		for i, f := range p.Frags {
			snap, ok := progs[i].(core.Snapshotter)
			if !ok {
				t.Fatalf("%s: program %T is not a Snapshotter", name, progs[i])
			}
			restored := job.New(f)
			if err := restored.(core.Snapshotter).RestoreState(snap.SnapshotState()); err != nil {
				t.Fatalf("%s/round=%d/frag=%d: restore: %v", name, round, i, err)
			}
			got := step(f, p.M, job, restored, round, cloneMsgs(job, inbox[i]))
			want := step(f, p.M, job, progs[i], round, inbox[i])
			for v := f.Lo; v < f.Hi; v++ {
				if a, b := restored.Get(v), progs[i].Get(v); !same(a, b) {
					t.Fatalf("%s/round=%d/frag=%d: vertex %d = %v after restore, want %v", name, round, i, v, a, b)
				}
			}
			for j := range want {
				if len(got[j]) != len(want[j]) {
					t.Fatalf("%s/round=%d/frag=%d: %d messages to %d after restore, want %d", name, round, i, len(got[j]), j, len(want[j]))
				}
				for k, w := range want[j] {
					g := got[j][k]
					if g.V != w.V || g.Round != w.Round || g.From != w.From || !same(g.Val, w.Val) {
						t.Fatalf("%s/round=%d/frag=%d: message %d to %d = %+v after restore, want %+v", name, round, i, k, j, g, w)
					}
				}
				next[j] = append(next[j], want[j]...)
			}
		}
		inbox = next
	}
	if round == 1 {
		t.Fatalf("%s: PEval shipped no messages; the round trip is untested", name)
	}
}

func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameI64(a, b int64) bool { return a == b }

func sameCF(a, b cf.Val) bool {
	if a.Weight != b.Weight || a.TS != b.TS || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if !sameF64(a.Vec[i], b.Vec[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	g := gen.PowerLaw(600, 5, 2.1, true, 31)
	und := graph.AsUndirected(g)
	r := gen.Bipartite(200, 40, 10, 4, 0.9, 29)
	for _, m := range []int{3, 5} {
		build := func(g *graph.Graph) *partition.Partitioned {
			p, err := partition.Build(g, m, partition.BFSLocality{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, pu, pr := build(g), build(und), build(r.G)
		for _, k := range []struct {
			name   string
			kernel sssp.KernelKind
		}{{"ref", sssp.KernelRef}, {"frontier", sssp.KernelFrontier}, {"buckets", sssp.KernelBuckets}} {
			snapshotRoundTrip(t, fmt.Sprintf("sssp/%s/m=%d", k.name, m), p,
				sssp.JobConfig(sssp.Config{Kernel: k.kernel, Shards: 2}), sameF64)
		}
		snapshotRoundTrip(t, fmt.Sprintf("cc/ref/m=%d", m), pu, cc.RefJob(), sameI64)
		snapshotRoundTrip(t, fmt.Sprintf("cc/shards=2/m=%d", m), pu, cc.JobShards(2), sameI64)
		snapshotRoundTrip(t, fmt.Sprintf("pagerank/m=%d", m), p, pagerank.Job(pagerank.Config{Tol: 1e-8}), sameF64)
		snapshotRoundTrip(t, fmt.Sprintf("cf/m=%d", m), pr,
			cf.Job(cf.Config{Users: 200, Products: 40, Rank: 4, Epochs: 4, Seed: 2}), sameCF)
	}
}
