// Windowed streaming front end of the chunked parallel loader: instead
// of slurping the whole file (peak RSS >= file size), the reader pulls
// fixed-size byte windows, parses each window's complete lines through
// the same chunk machinery (parseChunks), carries the trailing partial
// line to the front of the next window, and only the parsed chunk
// outputs (edge arrays, intern records) stay resident. The sharded
// dedup, deterministic merge and CSR build run once over all chunks at
// EOF, so the result is bit-identical to the slurp path for any window
// size — window boundaries only move chunk boundaries, and the (chunk,
// position) merge keys make the assignment independent of those.
package graph

import (
	"bufio"
	"bytes"
	"io"

	"aap/internal/par"
)

// loaderWindow is the read window of the streaming loader. Inputs that
// fit one window take the in-memory path unchanged; larger inputs
// stream.
const loaderWindow = 8 << 20

// readEdgeListStream reads the edge-list format from r window bytes at
// a time. Errors report the same text and global line numbers as the
// in-memory parse: windows are checked in file order before the buffer
// is reused.
func readEdgeListStream(r io.Reader, window int) (*Graph, error) {
	buf, eof, err := fillBuf(r, make([]byte, 0, window))
	if err != nil {
		return nil, err
	}
	if eof {
		// The whole input fits one window: identical to the slurp path.
		return ParseEdgeList(buf)
	}

	// Size unknown (and already > one window): assume enough work for
	// the full fan-out. All windows must agree on the dedup shard count.
	procs := par.Procs(int64(1)<<40, loaderGrainBytes)
	shards := procs

	h := newHeader()
	headerDone := false
	line := 0
	var all []chunk
	for {
		// The complete region: everything up to the last newline; at
		// EOF the final (possibly unterminated) line joins it.
		cut := len(buf)
		if !eof {
			if nl := bytes.LastIndexByte(buf, '\n'); nl >= 0 {
				cut = nl + 1
			} else {
				cut = 0
			}
		}
		complete := buf[:cut]
		pos := len(complete)
		if !headerDone {
			done, err := h.scan(complete)
			if err != nil {
				return nil, err
			}
			if done {
				headerDone = true
				line = h.lines
				pos = h.off
			}
		} else {
			pos = 0
		}
		if pos < len(complete) {
			region := complete[pos:]
			vHint, eHint := h.chunkHints(len(region), procs*loaderChunksPerWorker)
			chunks := parseChunks(region, procs, shards, vHint, eHint)
			// Check before the buffer is recycled: the first failing
			// window holds the first failing line of the file.
			if line, err = chunkFail(chunks, line); err != nil {
				return nil, err
			}
			all = append(all, chunks...)
		}
		if eof {
			break
		}
		// Carry the partial tail line to the front and refill. A full
		// buffer without any newline is one huge line: grow it until
		// the reference reader's line ceiling says ErrTooLong.
		carry := len(buf) - cut
		if carry >= maxLineLen {
			return nil, bufio.ErrTooLong
		}
		copy(buf, buf[cut:])
		buf = buf[:carry]
		if carry == cap(buf) {
			nb := make([]byte, carry, cap(buf)*2)
			copy(nb, buf)
			buf = nb
		}
		if buf, eof, err = fillBuf(r, buf); err != nil {
			return nil, err
		}
	}
	return assembleGraph(h, all, procs, shards), nil
}

// fillBuf reads from r until buf reaches capacity or EOF; eof reports
// that the input is exhausted.
func fillBuf(r io.Reader, buf []byte) (_ []byte, eof bool, err error) {
	for len(buf) < cap(buf) {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
	}
	return buf, false, nil
}
