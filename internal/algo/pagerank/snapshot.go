package pagerank

// Checkpoint support (core.Snapshotter): at round boundaries the
// frontier is drained and the staged buckets are empty (sweep/apply
// consume them within each round), so the durable state is the score
// and pending-delta arrays plus the round counter. Scores and deltas
// are serialized as float64s; the codec round trip is bit-exact, which
// the differential recovery tests rely on.

import (
	"fmt"

	"aap/internal/codec"
)

// SnapshotState serializes the kernel's durable state.
func (p *program) SnapshotState() []byte {
	buf := make([]byte, 0, 16*len(p.score)+16)
	buf = codec.AppendFloat64s(buf, p.score)
	buf = codec.AppendFloat64s(buf, p.delta)
	buf = codec.AppendInt64(buf, int64(p.rounds))
	return buf
}

// RestoreState rewinds the kernel to a snapshot.
func (p *program) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	score := r.Float64s()
	delta := r.Float64s()
	rounds := r.Int64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(score) != len(p.score) || len(delta) != len(p.delta) {
		return fmt.Errorf("pagerank: snapshot has %d/%d slots, fragment has %d", len(score), len(delta), len(p.score))
	}
	copy(p.score, score)
	copy(p.delta, delta)
	p.rounds = int(rounds)
	clear(p.inQ)
	for w := range p.next {
		p.next[w] = p.next[w][:0]
	}
	p.frontier = p.frontier[:0]
	for i := range p.buckets {
		p.buckets[i] = p.buckets[i][:0]
	}
	return nil
}
