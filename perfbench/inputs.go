package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"aap/internal/gen"
	"aap/internal/graph"
)

// Input shapes. The power-law graph is the friendster-sim stand-in of
// the paper's Table 1; the roadnet is a high-diameter jittered lattice.
const (
	powerLawVertices = 30000
	powerLawDegree   = 8
	powerLawAlpha    = 2.1
	roadnetSide      = 450
)

// inputInfo describes one generated input file.
type inputInfo struct {
	Path      string `json:"-"`
	Vertices  int    `json:"n"`
	Edges     int64  `json:"m"`
	FileBytes int64  `json:"file_bytes"`
}

// friendsterSim generates the weighted power-law graph of serve-sssp and
// pagerank-skew.
func friendsterSim(seed int64) *graph.Graph {
	return gen.PowerLaw(powerLawVertices, powerLawDegree, powerLawAlpha, true, seed)
}

// roadnetSim generates the roadnet of oneshot-roadnet.
func roadnetSim(seed int64) *graph.Graph {
	return gen.RoadNet(roadnetSide, roadnetSide, seed)
}

// writeInput writes g in the graph.WriteEdgeList format to path (via a
// temporary file and a rename, so a reader never sees half a file).
func writeInput(path string, g *graph.Graph) (inputInfo, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return inputInfo{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = graph.WriteEdgeList(bw, g)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return inputInfo{}, fmt.Errorf("write input %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return inputInfo{}, err
	}
	return inputInfo{Path: path, Vertices: g.NumVertices(), Edges: g.NumEdges(), FileBytes: st.Size()}, nil
}

// inputPath names the input file of one workload and seed.
func inputPath(cfg config) string {
	return filepath.Join(dataDir, fmt.Sprintf("%s-seed%d.el", cfg.workload, cfg.seed))
}

// pickSources draws k distinct external vertex ids of g from a seeded
// generator.
func pickSources(g *graph.Graph, k int, seed int64) []graph.VertexID {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(g.NumVertices())
	k = min(k, len(perm))
	out := make([]graph.VertexID, k)
	for i := range out {
		out[i] = g.IDOf(int32(perm[i]))
	}
	return out
}

// provenance records what a result was measured on.
func provenance(cfg config, o *outcome) map[string]any {
	commit, modified := "none", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	p := map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    commit,
		"git_modified":  modified,
		"source_sha256": sourceDigest("."),
		"input":         o.input,
		"samples":       o.samples,
		"error_frac":    o.errorFrac(),
		"attempted":     o.attempted,
		"failed":        o.failed,
		"wrong":         o.wrong,
		"percentile_ok": o.tailMet,
	}
	return p
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// jsonLine renders v on one line.
func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"error": %q}`, err.Error())
	}
	return string(b)
}
