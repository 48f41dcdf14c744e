// Command perfbench is the repository's benchmark. It runs one workload —
// the paper's Table 5 or Table 6 protocol, a warm retrieval service, or
// long-series joins and pairs — from a single process, checks the
// program's outputs, and prints every metric by name and unit; the last
// line of standard output is the result as one JSON object. See README.md
// for the workloads, the metrics and what each should predict.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload paper-elastic --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runner is one set-up workload.
type runner interface {
	// pass runs one unit of the timed work: a whole table protocol, one
	// serving round, or one long-series sweep. Work per pass is fixed, so
	// passes are comparable within and across runs.
	pass(ctx context.Context, i int, sp span) error
	// check recomputes a deterministic sample of the timed phase's outputs
	// directly and returns the number of operations found wrong.
	check(ctx context.Context) int
	// inputs reports the input sizes for the host stamp.
	inputs() map[string]int
}

// env is what a workload's set-up receives: the seed its inputs are drawn
// from and the run's tracer and recorder.
type env struct {
	seed int64
	tr   *tracer
	rec  *recorder
}

type workload struct {
	name  string
	setup func(ctx context.Context, e env, sp span) (runner, error)
}

var workloads = []workload{
	{"paper-elastic", setupPaperElastic},
	{"paper-kernel", setupPaperKernel},
	{"search-serve", setupServe},
	{"long-series", setupLong},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported metric. The lists below are the ones
// BENCHMARK.json declares (TestMetricListsMatchBenchmarkJSON keeps them in
// step).
type metricSpec struct {
	Name, Unit, Better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// result is one run's outcome.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// options are a run's settings, from the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // where traces and result files go; "" writes none
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are drawn from")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.out, "out", "", "directory for trace and result files (none when empty)")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := findWorkload(o.workload); !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// phase is what the timed phase measured.
type phase struct {
	walls, cpus   []float64 // per pass, untraced passes only
	tracedWalls   []float64
	passes        int
	traced        int
	elapsed       time.Duration
	peakRSS       float64
	before, after goStats
}

// run sets the workload up (several times; the median is setup_s), runs
// the timed phase, checks outputs and assembles the metrics. Progress and
// the stamp go to log; the caller prints the result.
func run(ctx context.Context, o options, log *os.File) (result, error) {
	w, _ := findWorkload(o.workload)
	tr := newTracer()
	rec := newRecorder()
	e := env{seed: o.seed, tr: tr, rec: rec}

	tr.on = o.trace
	setupTimes, r, err := setupRepeated(ctx, w, e)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	stamp := hostStamp(w.name, o.seed, o.seconds, o.trace, r.inputs())
	if b, err := json.Marshal(stamp); err == nil {
		fmt.Fprintf(log, "# stamp %s\n", b)
	}

	if wr, ok := r.(interface{ warm(context.Context) error }); ok {
		if err := wr.warm(ctx); err != nil {
			return result{}, fmt.Errorf("%s warm-up: %w", o.workload, err)
		}
	}
	ph := timed(ctx, w, r, e, o, &setupTimes)
	failed := int(rec.count("ops_failed"))
	failed += r.check(ctx)
	attempted := int(rec.count("ops"))
	if attempted < 1 {
		attempted = 1
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	put := func(m metricSpec, v float64) { res.Metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit} }
	if o.trace {
		layer := layerMetrics(tr, rec, ph, float64(failed)/float64(attempted))
		for _, m := range perLayer {
			put(m, layer[m.Name])
		}
		printBreakdown(log, tr, ph, len(setupTimes))
	} else {
		put(endToEnd[0], median(setupTimes))
		put(endToEnd[1], median(ph.walls))
		put(endToEnd[2], median(ph.cpus))
		put(endToEnd[3], ph.peakRSS)
	}
	fmt.Fprintf(log, "# passes %d (traced %d) in %.2fs, ops %d, failed %d\n",
		ph.passes, ph.traced, ph.elapsed.Seconds(), attempted, failed)

	if o.out != "" {
		if err := writeFiles(o, tr, stamp, res, ph, setupTimes); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// setupRepeated sets the workload up three times from scratch and keeps
// the last; the median of the repetitions is steadier than any one.
func setupRepeated(ctx context.Context, w workload, e env) ([]float64, runner, error) {
	var times []float64
	var r runner
	for i := 0; i < 3; i++ {
		d, rr, err := setupOnce(ctx, w, e)
		if err != nil {
			return nil, nil, err
		}
		times, r = append(times, d), rr
	}
	return times, r, nil
}

func setupOnce(ctx context.Context, w workload, e env) (float64, runner, error) {
	runtime.GC()
	sp := e.tr.root("setup", 0)
	defer sp.end()
	t := time.Now()
	r, err := w.setup(ctx, e, sp)
	return time.Since(t).Seconds(), r, err
}

// timed runs passes until the time is up. With tracing on, even passes are
// traced and odd ones are not, so the same run measures the overhead.
//
// A host's speed drifts over seconds, so a set-up that is cheap next to a
// pass (under 5%) is repeated once after every pass as well, outside the
// pass's timing: its median then samples the whole run, not one moment.
func timed(ctx context.Context, w workload, r runner, e env, o options, setupTimes *[]float64) phase {
	tr := e.tr
	var ph phase
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	ph.before = readGoStats()
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second; i++ {
		traced := o.trace && i%2 == 0
		tr.on = traced
		runtime.GC() // every pass starts from the same heap, not mid-cycle
		sp := tr.root("pass", int64(i)+1)
		c0, t0 := cpuTime(), time.Now()
		if err := r.pass(ctx, i, sp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: pass", i, err)
		}
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
		sp.end()
		ph.passes++
		if traced {
			ph.traced++
			ph.tracedWalls = append(ph.tracedWalls, wall)
		} else {
			ph.walls = append(ph.walls, wall)
			ph.cpus = append(ph.cpus, cpu)
		}
		if median(*setupTimes) < 0.05*wall {
			d, _, err := setupOnce(ctx, w, e)
			if err == nil {
				*setupTimes = append(*setupTimes, d)
			}
		}
	}
	tr.on = false
	ph.elapsed = time.Since(start)
	ph.after = readGoStats()
	ph.peakRSS = peakRSSMB()
	return ph
}

// printBreakdown lists every span name's total and self time, largest
// self time first: where the time of the traced passes and set-ups went.
func printBreakdown(log *os.File, tr *tracer, ph phase, setups int) {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].Self > tot[names[j]].Self })
	fmt.Fprintf(log, "# spans of %d traced passes and %d set-ups\n", ph.traced, setups)
	fmt.Fprintf(log, "# %-34s %8s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		t := tot[n]
		fmt.Fprintf(log, "# %-34s %8d %10.4f %10.4f\n", n, t.N, t.Dur.Seconds(), t.Self.Seconds())
	}
}

func writeFiles(o options, tr *tracer, stamp map[string]any, res result, ph phase, setupTimes []float64) error {
	dir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if o.trace {
		kind = "trace"
	}
	base := fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, kind)
	b, err := json.MarshalIndent(map[string]any{
		"stamp": stamp, "result": res,
		"setup_s": setupTimes, "pass_wall_s": ph.walls, "pass_cpu_s": ph.cpus, "traced_pass_wall_s": ph.tracedWalls,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if !o.trace {
		return nil
	}
	return tr.write(filepath.Join(dir, base+".spans.json"), stamp)
}
