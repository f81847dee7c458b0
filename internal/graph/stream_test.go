package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// streamBoth parses data through the streaming reader with the given
// window and through the in-memory slurp path.
func streamBoth(data []byte, window int) (*Graph, error, *Graph, error) {
	got, gotErr := readEdgeListStream(bytes.NewReader(data), window)
	want, wantErr := ParseEdgeList(data)
	return got, gotErr, want, wantErr
}

// TestStreamMatchesSlurp pins the streaming reader bit for bit against
// the in-memory parse on inputs spanning many windows, across window
// sizes that land boundaries mid-line and forced shard counts.
func TestStreamMatchesSlurp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomBuilder(rng, true, true, 800, 12000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes() // ~100 KiB
	for _, win := range []int{1 << 10, 4096 + 13, 1 << 16} {
		for _, procs := range []int{1, 3} {
			forceShards(t, procs)
			got, gotErr, want, wantErr := streamBoth(data, win)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("win=%d procs=%d: stream err %v, slurp err %v", win, procs, gotErr, wantErr)
			}
			equalGraphs(t, tagOf("stream", procs, int64(win)), got, want)
		}
	}
}

// TestStreamCarryOverLines drives lines comparable to the window size,
// so nearly every line spans a window boundary and the carry/grow path
// does real work (numbers long enough come from wide weights).
func TestStreamCarryOverLines(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=true weighted=true\n")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		// Long tokens: huge ids with maximal-precision weights, plus
		// padding runs of tabs so single lines exceed tiny windows.
		sb.WriteString(strings.Repeat("\t", rng.Intn(40)))
		sb.WriteString("90071992547409")
		sb.WriteString(itoa(i))
		sb.WriteString(" ")
		sb.WriteString(itoa(rng.Intn(50)))
		sb.WriteString(" 0.")
		for j := 0; j < 60; j++ {
			sb.WriteByte(byte('1' + rng.Intn(9)))
		}
		sb.WriteString("\n")
	}
	data := []byte(sb.String())
	for _, win := range []int{64, 97, 256} {
		got, gotErr, want, wantErr := streamBoth(data, win)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("win=%d: stream err %v, slurp err %v", win, gotErr, wantErr)
		}
		equalGraphs(t, tagOf("stream-carry", 0, int64(win)), got, want)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestStreamErrorParity places the first bad line deep in a late
// window: the streaming reader must report the same error text and
// global line number as the slurp path (and the sequential reference).
func TestStreamErrorParity(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=false weighted=true\n")
	for i := 0; i < 3000; i++ {
		sb.WriteString(itoa(i))
		sb.WriteString(" ")
		sb.WriteString(itoa(i + 1))
		sb.WriteString(" 1.5\n")
	}
	sb.WriteString("7 8 not-a-number\n") // line 3002
	sb.WriteString("9 10 2.5\n")
	data := []byte(sb.String())
	got, gotErr, want, wantErr := streamBoth(data, 512)
	if got != nil || want != nil {
		t.Fatal("expected both paths to fail")
	}
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %q, slurp err %q", gotErr, wantErr)
	}
	ref, refErr := readEdgeListRef(bytes.NewReader(data))
	if ref != nil || refErr == nil || refErr.Error() != gotErr.Error() {
		t.Fatalf("reference err %q, stream err %q", refErr, gotErr)
	}
	if !strings.Contains(gotErr.Error(), "line 3002") {
		t.Fatalf("error lost the global line number: %q", gotErr)
	}
}

// TestStreamHeaderSpansWindows feeds a header far longer than the
// window: flags, hints and line numbering must survive the resumable
// prescan.
func TestStreamHeaderSpansWindows(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=false weighted=true n=3 m=2\n")
	for i := 0; i < 300; i++ {
		sb.WriteString("# filler comment line with some padding text\n")
	}
	sb.WriteString("\n\n")
	sb.WriteString("0 1 2.5\n1 2 0.5\n")
	sb.WriteString("bad line with four fields\n") // checks line numbers too
	data := []byte(sb.String())
	_, gotErr, _, wantErr := streamBoth(data, 256)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %q, slurp err %q", gotErr, wantErr)
	}
	// Drop the bad tail: the parsed graph must carry the header flags.
	clean := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
	got, err := readEdgeListStream(bytes.NewReader(clean), 256)
	if err != nil {
		t.Fatal(err)
	}
	if got.Directed() || !got.Weighted() || got.NumVertices() != 3 {
		t.Fatalf("flags lost across windows: directed=%v weighted=%v n=%d",
			got.Directed(), got.Weighted(), got.NumVertices())
	}
}

// TestStreamTooLongLine: a line exceeding the reference reader's 1 MiB
// ceiling must fail with bufio.ErrTooLong from the growth path instead
// of looping or slurping.
func TestStreamTooLongLine(t *testing.T) {
	data := append([]byte("0 1\n2 "), bytes.Repeat([]byte("9"), maxLineLen+8)...)
	data = append(data, '\n')
	got, gotErr, want, wantErr := streamBoth(data, 1024)
	if got != nil || want != nil {
		t.Fatal("expected both paths to fail")
	}
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %v, slurp err %v", gotErr, wantErr)
	}
}

// TestStreamNoTrailingNewline: the final unterminated line parses at
// EOF exactly as in memory.
func TestStreamNoTrailingNewline(t *testing.T) {
	data := []byte("0 1\n1 2\n2 3")
	got, gotErr, want, wantErr := streamBoth(data, 8)
	if gotErr != nil || wantErr != nil {
		t.Fatalf("errs: %v / %v", gotErr, wantErr)
	}
	equalGraphs(t, "stream-eof", got, want)
}

// TestStreamFile round-trips a file through ReadEdgeListFile, the
// production entry point, and through the streaming reader with a
// window smaller than the file.
func TestStreamFile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomBuilder(rng, false, true, 200, 3000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ParseEdgeList(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "stream-file", got, want)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err = readEdgeListStream(f, 777)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "stream-file-windowed", got, want)
}

// TestStreamFileMissing: a missing file reports the open error.
func TestStreamFileMissing(t *testing.T) {
	if _, err := ReadEdgeListFile(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}

// TestStreamFileEmpty: an empty file loads as the empty graph the
// in-memory parse builds from no bytes.
func TestStreamFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatalf("read of empty file: %v", err)
	}
	want, err := ParseEdgeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 0 || got.NumEdges() != 0 {
		t.Fatalf("empty file loaded %d vertices, %d edges", got.NumVertices(), got.NumEdges())
	}
	equalGraphs(t, "stream-empty", got, want)
}

// TestStreamFileErrors: malformed input in a file fails with the exact
// error text of the in-memory parse.
func TestStreamFileErrors(t *testing.T) {
	data := []byte("0 1\nnope nope\n2 3\n")
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, fileErr := ReadEdgeListFile(path)
	_, memErr := ParseEdgeList(data)
	if fileErr == nil || memErr == nil || fileErr.Error() != memErr.Error() {
		t.Fatalf("file err %v, in-memory err %v", fileErr, memErr)
	}
}
