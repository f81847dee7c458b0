package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aap/internal/algo/pagerank"
	"aap/internal/algo/ref"
	"aap/internal/algo/sssp"
	"aap/internal/core"
	"aap/internal/gen"
	"aap/internal/graph"
	"aap/internal/partition"
)

// engineOrder matches the partitioned graph's vertex order to g's.
func engineOrder(t *testing.T, p *partition.Partitioned, g *graph.Graph) []int32 {
	t.Helper()
	order, err := refOrder(p.G.NumVertices(), func(v int) graph.VertexID { return p.G.IDOf(int32(v)) }, g)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func TestCheckSSSPAgainstReference(t *testing.T) {
	g := gen.PowerLaw(400, 4, 2.1, true, 3)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	src := pickSources(g, 1, 5)[0]
	res, err := core.Run(p, sssp.Job(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.SSSP(g, src)
	order := engineOrder(t, p, g)
	if err := checkSSSP(res.Values, want, order); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	if digest(res.Values) != digest(inOrder(want, order)) {
		t.Fatal("digest of a bit-identical answer differs")
	}

	// One ulp off at one vertex is a wrong answer, for the exact check
	// and for the digest the served workload compares.
	bad := append([]float64(nil), res.Values...)
	for v := range bad {
		if !math.IsInf(bad[v], 1) && bad[v] > 0 {
			bad[v] = math.Nextafter(bad[v], math.Inf(1))
			break
		}
	}
	if err := checkSSSP(bad, want, order); err == nil {
		t.Error("a distance one ulp off passed the check")
	}
	if digest(bad) == digest(res.Values) {
		t.Error("digest missed a one-ulp change")
	}
}

func TestCheckPageRankTolerance(t *testing.T) {
	g := gen.PowerLaw(400, 4, 2.1, false, 4)
	p, err := partition.Build(g, 4, partition.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, pagerank.Job(pagerank.Config{Tol: prTol}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.PageRank(g, prDamping, prRefEps, prRefMaxIter)
	order := engineOrder(t, p, g)
	if err := checkPageRank(res.Values, want, order); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	bad := append([]float64(nil), res.Values...)
	bad[0] *= 1 + 2*prRel
	if err := checkPageRank(bad, want, order); err == nil {
		t.Error("a score off by twice the tolerance passed the check")
	}
	// Mass drift spread thinly over every vertex stays under the
	// per-vertex tolerance but fails the mass check.
	for v := range bad {
		bad[v] = res.Values[v] * (1 + 2*prMassRel)
	}
	if err := checkPageRank(bad, want, order); err == nil || !strings.Contains(err.Error(), "mass") {
		t.Errorf("mass drift: got %v, want a mass error", err)
	}
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	var log opLog
	for i := 0; i < 3; i++ {
		log.add(10*time.Millisecond, false, nil, nil)
	}
	log.add(10*time.Millisecond, false, nil, errors.New("sssp: vertex index 7 differs"))
	o := newOutcome("test")
	o.addLatency(&log, time.Second, 3)

	if got := o.errorFrac(); got != 0.25 {
		t.Errorf("error_frac = %v, want 0.25", got)
	}
	r := o.result(false)
	if r.correct || r.failed != 1 || r.attempted != 4 {
		t.Errorf("result = correct %v, failed %d, attempted %d", r.correct, r.failed, r.attempted)
	}
	if r.exitCode() == 0 {
		t.Error("a wrong answer left the exit code 0")
	}
	// The wrong op is +Inf in the percentiles, and the line stays JSON.
	if !strings.Contains(r.json(), `"latency_p90_ms": {"value": 1e999, "unit": "ms"}`) {
		t.Errorf("wrong op not at +Inf in p90: %s", r.json())
	}

	// A refused op (no wrong answer) also fails the run, but the
	// outputs it did give are still correct.
	var refused opLog
	refused.add(time.Millisecond, false, errors.New("serve: server overloaded"), nil)
	o = newOutcome("test")
	o.addLatency(&refused, time.Second, 0)
	if r := o.result(false); !r.correct || r.exitCode() == 0 {
		t.Errorf("refused op: correct %v, exit %d", r.correct, r.exitCode())
	}

	var good opLog
	good.add(time.Millisecond, false, nil, nil)
	o = newOutcome("test")
	o.addLatency(&good, time.Second, 1)
	if r := o.result(false); !r.correct || r.exitCode() != 0 {
		t.Errorf("clean run: correct %v, exit %d", r.correct, r.exitCode())
	}
}

func TestSeedGivesByteIdenticalInput(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		gen  func(int64) *graph.Graph
	}{
		{"powerlaw", friendsterSim},
		{"roadnet", roadnetSim},
	} {
		var files [][]byte
		for i, seed := range []int64{7, 7, 8} {
			path := filepath.Join(dir, c.name+string(rune('a'+i)))
			if _, err := writeInput(path, c.gen(seed)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, data)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: the same seed gave different files", c.name)
		}
		if bytes.Equal(files[0], files[2]) {
			t.Errorf("%s: different seeds gave the same file", c.name)
		}
	}
	g := friendsterSim(7)
	a, b := pickSources(g, poolSize, 7), pickSources(g, poolSize, 7)
	seen := make(map[graph.VertexID]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave a different source pool")
		}
		seen[a[i]] = true
	}
	if len(seen) != poolSize {
		t.Errorf("source pool has %d distinct sources, want %d", len(seen), poolSize)
	}
}
