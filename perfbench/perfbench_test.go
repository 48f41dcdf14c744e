package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fixedRun sets a workload up and runs one pass and the output check,
// returning the counters it recorded. Unlike a timed run, the amount of
// work does not depend on the machine.
func fixedRun(t *testing.T, w workload, seed int64) map[string]float64 {
	t.Helper()
	ctx := context.Background()
	e := env{seed: seed, tr: newTracer(), rec: newRecorder()}
	r, err := w.setup(ctx, e, span{})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if wr, ok := r.(interface{ warm(context.Context) error }); ok {
		if err := wr.warm(ctx); err != nil {
			t.Fatalf("warm: %v", err)
		}
	}
	if err := r.pass(ctx, 0, span{}); err != nil {
		t.Fatalf("pass: %v", err)
	}
	if wrong := r.check(ctx); wrong != 0 {
		t.Fatalf("output check found %d wrong operations", wrong)
	}
	out := make(map[string]float64)
	for k, v := range e.rec.counts {
		if !strings.HasSuffix(k, "_s") { // durations are the only non-deterministic counters
			out[k] = v
		}
	}
	return out
}

// TestDeterministicCounters runs every workload twice on one seed and
// requires identical work counters (pairs, prunes, full distances,
// embedding and exact distances), accuracies and recall@10. The grid
// engine's warm-start cutoffs race between workers, so the runs use one
// processor: the counts are then the same on any machine, and a lost prune
// shows as a count rather than as noise in wall time.
func TestDeterministicCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := fixedRun(t, w, 7), fixedRun(t, w, 7)
			if a["ops"] == 0 {
				t.Fatal("no operations recorded")
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v", k, v, b[k])
				}
			}
			for k := range b {
				if _, ok := a[k]; !ok {
					t.Errorf("%s only in the second run", k)
				}
			}
		})
	}
}

// TestOnlyProgramImportsRepro keeps every call into the program in
// program.go, so a change to an entry point has one place to update.
func TestOnlyProgramImportsRepro(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if f == "program.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "repro/") {
				t.Errorf("%s imports %s; calls into the program belong in program.go", f, imp.Path.Value)
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSelfTime checks self time against hand-computed intervals: a parent
// [0,100) with overlapping children [10,30) and [20,50) and a disjoint
// child [60,70) covers 50, so its self time is 50.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []spanRec{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
	}}
	tot := tr.totals()
	if got := tot["p"].Self; got != 50 {
		t.Errorf("parent self time %v, want 50ns", got)
	}
	if got := tot["c"]; got.Dur != 60 || got.Self != 60 || got.N != 3 {
		t.Errorf("children %+v, want 60ns total and self over 3 spans", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if got := quantile(xs, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := quantile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
}
