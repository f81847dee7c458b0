// Command perfbench is the repository's benchmark. It generates its
// inputs from a seed with internal/gen, writes them to an edge-list file,
// and drives three workloads through the public entry points, from the
// file on disk to a checked answer:
//
//	serve-sssp       graph.ReadEdgeListFile → partition.Build → serve.New
//	                 → serve.ListenRPC + serve.DialRPC, then a closed loop
//	                 of 2 callers issuing SSSP queries over one connection
//	pagerank-skew    the paper's Table-1 setup: PageRank (Tol 1e-4) on 32
//	                 virtual workers over partition.Skewed{Ratio: 3} in AAP
//	                 mode, repeated core.Query calls on one Session
//	oneshot-roadnet  a grapecli-style job repeated back to back: read the
//	                 roadnet file, BFS-locality partition, one SSSP query
//
// Every answer is checked against internal/algo/ref, and every
// measurement is taken from outside the program: the benchmark times its
// calls into each layer and reads the counters those calls return.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve-sssp --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. --workload all runs
// every workload in turn. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}; a human-readable report
// goes to standard error. The exit code is non-zero when any answer is
// wrong or any op failed.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// dataDir holds the generated inputs and span files, under the build
// directory of the checkout the benchmark runs in.
var dataDir = filepath.Join(".bench_build", "perfbench-data")

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(config) (*outcome, error){
	"serve-sssp":      runServeSSSP,
	"pagerank-skew":   runPageRankSkew,
	"oneshot-roadnet": runOneshotRoadnet,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"serve-sssp", "pagerank-skew", "oneshot-roadnet"}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "serve-sssp, pagerank-skew, oneshot-roadnet or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase of each workload")
	trace := fs.Int("trace", 0, "0: end-to-end run; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloadFuncs[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			return 2
		}
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var outs []*outcome
	for _, n := range names {
		cfg := config{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1}
		out, err := workloadFuncs[n](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		out.prov = provenance(cfg, out)
		out.writeReport(os.Stderr)
		outs = append(outs, out)
	}

	final := outs[0].result(*trace == 1)
	if len(outs) > 1 {
		final = combine(outs, *trace == 1)
	}
	for _, o := range outs {
		fmt.Println(jsonLine(map[string]any{"workload": o.workload, "provenance": o.prov}))
	}
	fmt.Println(final.json())
	return final.exitCode()
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64
	Unit  string
}

// metricSet keeps metrics in insertion order for the report.
type metricSet struct {
	order []string
	m     map[string]metric
}

func (s *metricSet) add(name, unit string, v float64) {
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	if _, dup := s.m[name]; !dup {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// result is the summary printed as the last line of standard output.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   metricSet
}

// exitCode is non-zero when any answer was wrong or any op failed.
func (r result) exitCode() int {
	if !r.correct || r.failed > 0 || r.attempted < 1 {
		return 1
	}
	return 0
}

// json renders the result by hand so that every value keeps all its
// digits and a +Inf percentile (a failed op) stays a JSON number.
func (r result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	names := append([]string(nil), r.metrics.order...)
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		m := r.metrics.m[n]
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, n, number(m.Value), m.Unit)
	}
	b.WriteString("}}")
	return b.String()
}

// number formats v as a JSON number with all its digits; ±Inf becomes
// ±1e999, which JSON readers parse as infinity.
func number(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-1e999"
	case math.IsInf(v, 1), math.IsNaN(v): // NaN only arises from failed ops; report it as worst
		return "1e999"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// combine merges the outcomes of --workload all into one result whose
// metric names carry the workload as a prefix.
func combine(outs []*outcome, traced bool) result {
	final := result{correct: true}
	for _, o := range outs {
		r := o.result(traced)
		final.correct = final.correct && r.correct
		final.attempted += r.attempted
		final.failed += r.failed
		for _, n := range r.metrics.order {
			m := r.metrics.m[n]
			final.metrics.add(o.workload+"/"+n, m.Unit, m.Value)
		}
	}
	return final
}
