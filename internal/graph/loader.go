// Chunked parallel edge-list loader: the streaming ingest front end.
//
// ParseEdgeList turns file bytes into a Graph with every stage
// multicore:
//
//	bytes ─ chunk split (newline-aligned) ─ per-chunk parse + local
//	intern ─ hash-sharded dedup ─ deterministic merge/assign ─ remap ─
//	parallel CSR scatter (ingest.go)
//
// Each chunk parses on its own goroutine with hand-rolled tokenizing
// and integer parsing (no strings.Fields, no per-line allocations) into
// chunk-local edge buffers and a chunk-local intern map, so parser
// workers never share a map. Cross-chunk dedup shards by hash(id):
// shard s owns every id with shardOf(id)==s and scans the chunks'
// first-appearance records in (chunk, position) order, which makes the
// final internal-id assignment — a merge of the shard lists by that
// same key — exactly the first-appearance order a single sequential
// Builder would produce. The result is bit-identical to the retained
// reference reader (io_ref_test.go) for any chunk or shard count,
// which the differential and fuzz tests in io_test.go pin.
package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"aap/internal/par"
)

const (
	// loaderGrainBytes is the input size per parse worker before the
	// loader adds another; below it goroutine fan-out costs more than
	// the parsing saves.
	loaderGrainBytes = 1 << 20

	// loaderChunksPerWorker oversubscribes chunks to workers so a chunk
	// dense in long lines or new vertices does not straggle the tail;
	// workers pull chunks from a shared counter.
	loaderChunksPerWorker = 4

	// maxLineLen mirrors the reference reader's bufio.Scanner buffer: a
	// line whose terminator is not within 1 MiB fails with
	// bufio.ErrTooLong there, so the chunked parser enforces the same
	// ceiling to stay differentially identical.
	maxLineLen = 1 << 20
)

// asciiSpace marks the single-byte separators of the tokenizer: the
// ASCII subset of unicode.IsSpace, the fast path of every line. Bytes
// outside ASCII take the rune-decoding slow path so multi-byte
// whitespace (NBSP, NEL, ideographic space, …) separates fields exactly
// as the reference reader's strings.Fields does — the two paths accept
// identical inputs byte for byte.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace advances i over the whitespace run starting at region[i],
// returning the first non-space position <= le. ASCII bytes resolve
// through the table; other bytes decode as UTF-8 and consult
// unicode.IsSpace, mirroring strings.Fields (invalid sequences decode
// to U+FFFD, which is not a space, and join the next token byte-wise in
// both readers).
func skipSpace(region []byte, i, le int) int {
	for i < le {
		if c := region[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		r, sz := utf8.DecodeRune(region[i:le])
		if !unicode.IsSpace(r) {
			return i
		}
		i += sz
	}
	return i
}

// skipToken advances i over the token starting at region[i] (which must
// not be a space), returning the position just past it.
func skipToken(region []byte, i, le int) int {
	for i < le {
		if c := region[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		r, sz := utf8.DecodeRune(region[i:le])
		if unicode.IsSpace(r) {
			return i
		}
		i += sz
	}
	return i
}

// bstr reinterprets b as a string without copying — strconv fallbacks
// only read the bytes during the call and the loader never mutates the
// input buffer, so the aliasing is safe and the hot path stays
// allocation-free.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// parseIntBytes is the hand-rolled base-10 int64 fast path. ok=false
// means "let strconv decide": the caller re-parses with strconv.ParseInt
// for the exact value (19-digit magnitudes) or the canonical error, so
// accepted syntax and error text match the reference reader exactly.
func parseIntBytes(tok []byte) (int64, bool) {
	i := 0
	neg := false
	if tok[0] == '+' || tok[0] == '-' {
		neg = tok[0] == '-'
		i = 1
	}
	if nd := len(tok) - i; nd == 0 || nd > 18 {
		return 0, false
	}
	var u uint64
	for ; i < len(tok); i++ {
		c := tok[i] - '0'
		if c > 9 {
			return 0, false
		}
		u = u*10 + uint64(c)
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// shardOf maps an external id to its intern shard.
func shardOf(id VertexID, shards int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(shards))
}

// flatIntern is an open-addressed VertexID→int32 table used for the
// chunk-local intern and the shard dedup. The intern workload is
// hit-heavy (two lookups per edge line, one insert per distinct id),
// where linear probing at ≤0.75 load runs several times cheaper than a
// Go map and rehashing is the only allocation. Values are ≥0; vals[i]
// < 0 marks an empty slot, so any int64 id is a valid key.
type flatIntern struct {
	keys []VertexID
	vals []int32
	n    int
	mask uint64
}

func newFlatIntern(hint int) *flatIntern {
	size := 16
	for size < hint*2 {
		size <<= 1
	}
	f := &flatIntern{keys: make([]VertexID, size), vals: make([]int32, size), mask: uint64(size - 1)}
	for i := range f.vals {
		f.vals[i] = -1
	}
	return f
}

func (f *flatIntern) hash(id VertexID) uint64 {
	// Deliberately a different mix than shardOf: the shard dedup tables
	// hold only keys with hash%shards == s, so reusing shardOf's
	// avalanche would pin the low bits of every home index and lengthen
	// probe chains by the shard count.
	h := uint64(id) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h & f.mask
}

// get returns the value stored for id, or -1.
func (f *flatIntern) get(id VertexID) int32 {
	i := f.hash(id)
	for {
		if f.vals[i] < 0 {
			return -1
		}
		if f.keys[i] == id {
			return f.vals[i]
		}
		i = (i + 1) & f.mask
	}
}

// getOrPut returns (existing value, true) when id is present, otherwise
// inserts val and returns (val, false).
func (f *flatIntern) getOrPut(id VertexID, val int32) (int32, bool) {
	i := f.hash(id)
	for {
		if f.vals[i] < 0 {
			f.keys[i], f.vals[i] = id, val
			f.n++
			if uint64(f.n)*4 > (f.mask+1)*3 {
				f.rehash()
			}
			return val, false
		}
		if f.keys[i] == id {
			return f.vals[i], true
		}
		i = (i + 1) & f.mask
	}
}

// put overwrites the value of a key that is already present (the
// merge's final-id fixup); absent keys would spin, so callers must
// guarantee membership.
func (f *flatIntern) put(id VertexID, val int32) {
	i := f.hash(id)
	for {
		if f.vals[i] >= 0 && f.keys[i] == id {
			f.vals[i] = val
			return
		}
		i = (i + 1) & f.mask
	}
}

func (f *flatIntern) rehash() {
	old := *f
	size := (int(f.mask) + 1) * 2
	f.keys = make([]VertexID, size)
	f.vals = make([]int32, size)
	f.mask = uint64(size - 1)
	for i := range f.vals {
		f.vals[i] = -1
	}
	for i, v := range old.vals {
		if v < 0 {
			continue
		}
		j := f.hash(old.keys[i])
		for f.vals[j] >= 0 {
			j = (j + 1) & f.mask
		}
		f.keys[j], f.vals[j] = old.keys[i], v
	}
}

// header holds what the sequential prescan of the leading comment/blank
// lines established: the graph flags, optional n=/m= size hints, and
// where the data region starts.
type header struct {
	directed, weighted bool
	seen               bool // a "directed=" comment already fixed the flags
	nHint, mHint       int
	off                int // byte offset of the first data line
	lines              int // lines consumed before the data region
}

// newHeader returns the prescan state with the reference reader's
// defaults (directed, unweighted).
func newHeader() header { return header{directed: true} }

// scan consumes leading blank and comment lines from data exactly like
// the reference reader: the first comment containing "directed=" fixes
// the flags, later ones are ignored, and flags are frozen once the
// first data line appears. done=true means a data line was found and
// h.off is its offset within data; done=false means data held only
// header lines — the streaming reader calls scan again on the next
// window, accumulating flags, hints and line counts across calls.
func (h *header) scan(data []byte) (done bool, err error) {
	pos := 0
	for pos < len(data) {
		ls := pos
		le, next := len(data), len(data)
		if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
			le, next = pos+nl, pos+nl+1
		}
		if le-ls >= maxLineLen {
			return false, bufio.ErrTooLong
		}
		line := bytes.TrimSpace(data[ls:le])
		if len(line) == 0 {
			h.lines++
			pos = next
			continue
		}
		if line[0] != '#' {
			h.off = ls
			return true, nil
		}
		if !h.seen && bytes.Contains(line, []byte("directed=")) {
			h.seen = true
			h.directed = bytes.Contains(line, []byte("directed=true"))
			h.weighted = bytes.Contains(line, []byte("weighted=true"))
		}
		h.scanHints(line)
		h.lines++
		pos = next
	}
	h.off = len(data)
	return false, nil
}

// scanHints extracts n=/m= size hints from a header comment. They only
// pre-size buffers, so malformed or missing hints cost nothing.
func (h *header) scanHints(line []byte) {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		s := i
		for i < len(line) && !asciiSpace[line[i]] {
			i++
		}
		tok := line[s:i]
		if len(tok) > 2 && tok[1] == '=' {
			// Bound by MaxInt32 so int(v) cannot wrap negative on
			// 32-bit platforms and sneak past the size clamps.
			if v, ok := parseIntBytes(tok[2:]); ok && v >= 0 && v < 1<<31 {
				if tok[0] == 'n' {
					h.nHint = int(v)
				} else if tok[0] == 'm' {
					h.mHint = int(v)
				}
			}
		}
	}
}

// Chunk error kinds; the first failing chunk materializes the same
// error, with the same global line number, the reference reader stops
// on.
const (
	failNone = iota
	failTooLong
	failBadVertex
	failFieldCount
	failNum
)

type chunkError struct {
	kind  int
	line  int   // 1-based within the chunk
	count int   // field count for failFieldCount
	num   error // strconv error for failNum
}

// internRec is one chunk-local first appearance of an external id.
type internRec struct {
	id  VertexID
	pos int32 // index into the chunk's localIDs
}

// chunk is one newline-aligned byte range with everything its parse
// produced.
type chunk struct {
	lo, hi   int
	index    *flatIntern
	localIDs []VertexID    // chunk-local first-appearance order
	buckets  [][]internRec // per intern shard, in localIDs order
	srcs     []int32       // chunk-local vertex indexes
	dsts     []int32
	ws       []float64 // nil until a 3-field line appears in this chunk
	sawData  bool
	lines    int
	fail     chunkError
}

func (c *chunk) intern(id VertexID, shards int) int32 {
	v, existed := c.index.getOrPut(id, int32(len(c.localIDs)))
	if existed {
		return v
	}
	c.localIDs = append(c.localIDs, id)
	s := shardOf(id, shards)
	c.buckets[s] = append(c.buckets[s], internRec{id: id, pos: v})
	return v
}

// parse tokenizes the chunk's lines. It stops at the chunk's first
// error; the line count of an errored chunk is only consumed up to the
// failure, which is fine because only chunks before the earliest
// failure contribute to its global line number.
func (c *chunk) parse(region []byte, shards, vHint, eHint int) {
	c.index = newFlatIntern(vHint)
	c.localIDs = make([]VertexID, 0, vHint)
	c.buckets = make([][]internRec, shards)
	c.srcs = make([]int32, 0, eHint)
	c.dsts = make([]int32, 0, eHint)

	pos := c.lo
	var tok [3][2]int
	for pos < c.hi {
		ls := pos
		le := c.hi
		if nl := bytes.IndexByte(region[pos:c.hi], '\n'); nl >= 0 {
			le = pos + nl
			pos = le + 1
		} else {
			pos = c.hi
		}
		c.lines++
		if le-ls >= maxLineLen {
			c.fail = chunkError{kind: failTooLong, line: c.lines}
			return
		}

		// Tokenize: remember the first three tokens, count them all.
		total := 0
		for i := ls; i < le; {
			i = skipSpace(region, i, le)
			if i >= le {
				break
			}
			s := i
			i = skipToken(region, i, le)
			if total < 3 {
				tok[total] = [2]int{s, i}
			}
			total++
		}
		if total == 0 {
			continue // blank line
		}
		if region[tok[0][0]] == '#' {
			continue // comment; header flags froze at the prescan
		}
		c.sawData = true

		if tok[0][1]-tok[0][0] == 1 && region[tok[0][0]] == 'v' {
			if total != 2 {
				c.fail = chunkError{kind: failBadVertex, line: c.lines}
				return
			}
			id, ok := c.parseVertexID(region, tok[1])
			if !ok {
				return
			}
			c.intern(id, shards)
			continue
		}
		if total < 2 || total > 3 {
			c.fail = chunkError{kind: failFieldCount, line: c.lines, count: total}
			return
		}
		src, ok := c.parseVertexID(region, tok[0])
		if !ok {
			return
		}
		dst, ok := c.parseVertexID(region, tok[1])
		if !ok {
			return
		}
		s, d := c.intern(src, shards), c.intern(dst, shards)
		if total == 3 {
			w := region[tok[2][0]:tok[2][1]]
			wt, err := strconv.ParseFloat(bstr(w), 64)
			if err != nil {
				c.fail = chunkError{kind: failNum, line: c.lines, num: err}
				return
			}
			if c.ws == nil {
				// Earlier 2-field edges of this chunk carry weight 1,
				// exactly as Builder.AddEdge records them.
				c.ws = make([]float64, len(c.srcs), cap(c.srcs))
				for i := range c.ws {
					c.ws[i] = 1
				}
			}
			c.ws = append(c.ws, wt)
		} else if c.ws != nil {
			c.ws = append(c.ws, 1)
		}
		c.srcs = append(c.srcs, s)
		c.dsts = append(c.dsts, d)
	}
}

// parseVertexID resolves one id token, falling back to strconv for
// oversized magnitudes and for the canonical error text.
func (c *chunk) parseVertexID(region []byte, t [2]int) (VertexID, bool) {
	b := region[t[0]:t[1]]
	if v, ok := parseIntBytes(b); ok {
		return VertexID(v), true
	}
	v, err := strconv.ParseInt(bstr(b), 10, 64)
	if err != nil {
		c.fail = chunkError{kind: failNum, line: c.lines, num: err}
		return 0, false
	}
	return VertexID(v), true
}

// shardAssign is one intern shard's view of the dedup: the ids it owns
// in global first-appearance order, with their (chunk, position) keys
// and, after the merge, their final internal ids.
type shardAssign struct {
	m     *flatIntern
	ids   []VertexID
	keys  []uint64 // chunk<<32 | chunk-local first-appearance position
	final []int32
}

// mergeAssign is the tournament-tree fan-in of the sharded dedup: it
// merges the shards' first-appearance lists by their (chunk, position)
// keys, writing each id's final internal id and the global id table in
// merged order. Keys are unique ((chunk, position) pairs identify one
// first appearance), so ties cannot arise and the merge is total.
//
// The tree is a classic loser tree: leaves are the shard heads padded to
// a power of two with an exhausted sentinel, internal nodes hold the
// loser of their subtree's match, and tree[0] holds the overall winner.
// Popping the winner replays exactly one root-to-leaf path — O(log S)
// comparisons — where the linear scan it replaces compared all S heads
// per output id.
func mergeAssign(assigns []shardAssign, ids []VertexID) {
	shards := len(assigns)
	width := 1
	for width < shards {
		width <<= 1
	}
	const exhausted = ^uint64(0)
	heads := make([]int, width)
	key := make([]uint64, width) // current key of each leaf
	for s := range key {
		if s < shards && len(assigns[s].keys) > 0 {
			key[s] = assigns[s].keys[0]
		} else {
			key[s] = exhausted
		}
	}
	tree := make([]int, width) // tree[1:] hold losers; tree[0] the winner
	var build func(node int) int
	build = func(node int) int {
		if node >= width {
			return node - width // leaf: shard index
		}
		l, r := build(2*node), build(2*node+1)
		if key[l] <= key[r] {
			tree[node] = r
			return l
		}
		tree[node] = l
		return r
	}
	tree[0] = build(1)

	for i := range ids {
		w := tree[0]
		a := &assigns[w]
		a.final[heads[w]] = int32(i)
		ids[i] = a.ids[heads[w]]
		heads[w]++
		if heads[w] < len(a.keys) {
			key[w] = a.keys[heads[w]]
		} else {
			key[w] = exhausted
		}
		// Replay the matches on w's root path; the smaller key survives.
		for node := (width + w) / 2; node >= 1; node /= 2 {
			if key[tree[node]] < key[w] {
				tree[node], w = w, tree[node]
			}
		}
		tree[0] = w
	}
}

// ParseEdgeList parses an in-memory edge list with the chunked parallel
// loader. See ReadEdgeList for the format.
func ParseEdgeList(data []byte) (*Graph, error) {
	h := newHeader()
	if _, err := h.scan(data); err != nil {
		return nil, err
	}
	region := data[h.off:]
	procs := par.Procs(int64(len(region)), loaderGrainBytes)
	vHint, eHint := h.chunkHints(len(region), procs*loaderChunksPerWorker)
	chunks := parseChunks(region, procs, procs, vHint, eHint)
	if _, err := chunkFail(chunks, h.lines); err != nil {
		return nil, err
	}
	return assembleGraph(h, chunks, procs, procs), nil
}

// chunkHints sizes the per-chunk vertex/edge buffer hints for nc chunks
// over a region of regionLen bytes, clamping the header's claims so a
// lying header cannot force absurd allocations: every edge line has ≥4
// bytes, every vertex ≥2.
func (h *header) chunkHints(regionLen, nc int) (vHint, eHint int) {
	n, m := h.nHint, h.mHint
	if m > regionLen/4+1 {
		m = regionLen/4 + 1
	}
	if n > regionLen/2+1 {
		n = regionLen/2 + 1
	}
	return n/nc + 8, m/nc + 8
}

// parseChunks splits region into newline-aligned chunks pulled by procs
// workers from a shared counter and parses them concurrently, interning
// ids into `shards` dedup shards.
func parseChunks(region []byte, procs, shards, vHint, eHint int) []chunk {
	nc := procs * loaderChunksPerWorker

	// Newline-aligned chunk boundaries: push each tentative split to
	// the start of the next line. Collapsed (empty) chunks are fine.
	bounds := make([]int, nc+1)
	bounds[nc] = len(region)
	for i := 1; i < nc; i++ {
		s := i * len(region) / nc
		if s < bounds[i-1] {
			s = bounds[i-1]
		}
		if s > 0 && (s == len(region) || region[s-1] == '\n') {
			bounds[i] = s
			continue
		}
		if nl := bytes.IndexByte(region[s:], '\n'); nl >= 0 {
			bounds[i] = s + nl + 1
		} else {
			bounds[i] = len(region)
		}
	}

	chunks := make([]chunk, nc)
	var nextChunk atomic.Int32
	par.Do(procs, func(int) {
		for {
			k := int(nextChunk.Add(1)) - 1
			if k >= nc {
				return
			}
			chunks[k].lo, chunks[k].hi = bounds[k], bounds[k+1]
			chunks[k].parse(region, shards, vHint, eHint)
		}
	})
	return chunks
}

// chunkFail scans chunks for the first failure in file order and
// materializes it with the reference reader's line numbering; startLine
// is the global line count before chunks[0]. On success it returns the
// line count after the last chunk, so the streaming reader can thread
// it through windows. (Errors are formatted here, before the caller may
// reuse the underlying byte buffer, because strconv errors alias it.)
func chunkFail(chunks []chunk, startLine int) (int, error) {
	line := startLine
	for k := range chunks {
		c := &chunks[k]
		if c.fail.kind != failNone {
			n := line + c.fail.line
			switch c.fail.kind {
			case failTooLong:
				return 0, bufio.ErrTooLong
			case failBadVertex:
				return 0, fmt.Errorf("graph: line %d: bad vertex line", n)
			case failFieldCount:
				return 0, fmt.Errorf("graph: line %d: expected 2 or 3 fields, got %d", n, c.fail.count)
			default:
				return 0, fmt.Errorf("graph: line %d: %v", n, c.fail.num)
			}
		}
		line += c.lines
	}
	return line, nil
}

// assembleGraph runs the sharded dedup, the deterministic merge and the
// edge remap over the parsed (failure-free) chunks and builds the CSR
// graph. Chunks must all have interned into `shards` shards; the order
// of the slice is file order, which the (chunk, position) merge keys
// rely on.
func assembleGraph(h header, chunks []chunk, procs, shards int) *Graph {
	nc := len(chunks)
	sawData, sawWeight := false, false
	m := 0
	for k := range chunks {
		sawData = sawData || chunks[k].sawData
		sawWeight = sawWeight || chunks[k].ws != nil
		m += len(chunks[k].srcs)
	}
	// The weighted flag freezes when the first data line creates the
	// builder (reference quirk: a weighted header with no data lines
	// yields an unweighted empty graph).
	weighted := (h.weighted && sawData) || sawWeight

	// Sharded dedup: shard s scans every chunk's bucket s in (chunk,
	// position) order, keeping the first record per id. The kept keys
	// come out sorted, so the merge below is a linear S-way merge. The
	// intern table is sized from the actual record count — an exact
	// upper bound on the shard's distinct ids — never from the header's
	// unclamped n= claim (a lying header must not force allocations).
	assigns := make([]shardAssign, shards)
	par.Do(shards, func(s int) {
		a := &assigns[s]
		recs := 0
		for k := range chunks {
			recs += len(chunks[k].buckets[s])
		}
		a.m = newFlatIntern(recs)
		for k := range chunks {
			for _, r := range chunks[k].buckets[s] {
				// Membership insert; the final id overwrites it below.
				if _, existed := a.m.getOrPut(r.id, 0); !existed {
					a.ids = append(a.ids, r.id)
					a.keys = append(a.keys, uint64(k)<<32|uint64(uint32(r.pos)))
				}
			}
		}
		a.final = make([]int32, len(a.ids))
	})

	// Deterministic assignment: merging the shard lists by (chunk,
	// position) restores the global first-appearance order — the exact
	// internal-id order of a sequential Builder fed the same lines. The
	// merge is a tournament (loser) tree over the shard heads: O(log S)
	// comparisons per id instead of the former O(S) linear scan, which
	// matters once the fan-out grows past a handful of shards.
	n := 0
	for s := range assigns {
		n += len(assigns[s].ids)
	}
	ids := make([]VertexID, n)
	mergeAssign(assigns, ids)
	par.Do(shards, func(s int) {
		a := &assigns[s]
		for i, id := range a.ids {
			a.m.put(id, a.final[i])
		}
	})

	// Remap chunk-local edges into the global edge arrays (chunk-major
	// order = file order), translating through the shard maps.
	edgeOff := make([]int, nc+1)
	for k := range chunks {
		edgeOff[k+1] = edgeOff[k] + len(chunks[k].srcs)
	}
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	// ws stays nil for an edgeless weighted graph: the reference's
	// Builder only materializes its weight column on the first edge, and
	// Graph.Weighted reports outW presence.
	var ws []float64
	if weighted && m > 0 {
		ws = make([]float64, m)
	}
	var nextRemap atomic.Int32
	par.Do(procs, func(int) {
		for {
			k := int(nextRemap.Add(1)) - 1
			if k >= nc {
				return
			}
			c := &chunks[k]
			trans := make([]int32, len(c.localIDs))
			for i, id := range c.localIDs {
				trans[i] = assigns[shardOf(id, shards)].m.get(id)
			}
			off := edgeOff[k]
			for i, s := range c.srcs {
				srcs[off+i] = trans[s]
			}
			for i, d := range c.dsts {
				dsts[off+i] = trans[d]
			}
			if ws != nil {
				if c.ws != nil {
					copy(ws[off:off+len(c.ws)], c.ws)
				} else {
					for i := range c.srcs {
						ws[off+i] = 1
					}
				}
			}
		}
	})

	// Hand the assembled arrays to the parallel CSR pipeline. The
	// builder is construction-only scratch (its intern map stays nil —
	// Build never touches it), so no per-edge Builder calls and no
	// single-map contention anywhere on the path.
	b := &Builder{directed: h.directed, weighted: weighted, ids: ids, srcs: srcs, dsts: dsts, ws: ws}
	return b.Build()
}
