package cc

// Checkpoint support (core.Snapshotter): at round boundaries the only
// durable state is the component labeling (comp/parent), the per-root
// cids, and the round counter — the changed-root worklists are drained
// within each IncEval. copiesOf is derived from the labeling (the local
// forest is fixed after PEval), so it is rebuilt on restore rather than
// serialized; a presence flag distinguishes "PEval ran" from a fresh
// program, since a pre-PEval snapshot has no forest to index.

import (
	"fmt"

	"aap/internal/codec"
)

// SnapshotState serializes the parallel kernel's durable state.
func (p *program) SnapshotState() []byte {
	comp := make([]int32, len(p.comp))
	for i := range p.comp {
		comp[i] = p.comp[i].Load()
	}
	cid := make([]int64, len(p.cid))
	for i := range p.cid {
		cid[i] = p.cid[i].Load()
	}
	buf := make([]byte, 0, 4*len(comp)+8*len(cid)+24)
	buf = codec.AppendInt32s(buf, comp)
	buf = codec.AppendInt64s(buf, cid)
	buf = codec.AppendInt64(buf, int64(p.rounds))
	buf = codec.AppendBool(buf, p.copiesOf != nil)
	return buf
}

// RestoreState rewinds the parallel kernel to a snapshot and rebuilds
// the root→copies index from the restored labeling.
func (p *program) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	comp := r.Int32s()
	cid := r.Int64s()
	rounds := r.Int64()
	built := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if len(comp) != len(p.comp) || len(cid) != len(p.cid) {
		return fmt.Errorf("cc: snapshot has %d/%d slots, fragment has %d", len(comp), len(cid), len(p.comp))
	}
	for i, c := range comp {
		p.comp[i].Store(c)
	}
	for i, c := range cid {
		p.cid[i].Store(c)
	}
	p.rounds = int(rounds)
	if built {
		p.linkCopies()
	} else {
		p.copiesOf = nil
	}
	return nil
}

// SnapshotState serializes the union-find kernel's durable state.
func (p *refProgram) SnapshotState() []byte {
	buf := make([]byte, 0, 4*len(p.parent)+8*len(p.cid)+16)
	buf = codec.AppendInt32s(buf, p.parent)
	buf = codec.AppendInt64s(buf, p.cid)
	buf = codec.AppendBool(buf, p.copiesOf != nil)
	return buf
}

// RestoreState rewinds the union-find kernel to a snapshot and rebuilds
// the root→copies index from the restored forest.
func (p *refProgram) RestoreState(data []byte) error {
	r := codec.NewReader(data)
	parent := r.Int32s()
	cid := r.Int64s()
	built := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if len(parent) != len(p.parent) || len(cid) != len(p.cid) {
		return fmt.Errorf("cc: snapshot has %d/%d slots, fragment has %d", len(parent), len(cid), len(p.parent))
	}
	copy(p.parent, parent)
	copy(p.cid, cid)
	if built {
		p.linkCopies()
	} else {
		p.copiesOf = nil
	}
	p.changedRoots = p.changedRoots[:0]
	clear(p.rootChanged)
	return nil
}
