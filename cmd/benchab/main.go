// Command benchab runs the repository benchmark as an interleaved A/B
// experiment: `bash perfbench/run.sh` alternately in two checkouts of the
// repository for a number of pairs, then reports, for each requested
// metric, both sides' median and quartiles, the ratio of the medians, how
// many pairs the B side won, and the two-sided Wilcoxon signed-rank
// p-value of the paired differences (internal/stats). Interleaving puts both sides under the
// same host drift, and the pairing lets the test see through it.
//
// Within a pair the order alternates (A then B, then B then A), so neither
// side always runs on a warmer machine. Every run's result line is the
// last line of run.sh's standard output; a run that fails, or reports
// correct=false or failed operations, stops the experiment.
//
// Usage (each directory a checkout whose perfbench/run.sh is run from its
// root):
//
//	benchab -a ../parent -b . -pairs 10 -metrics wall_s,cpu_s -- --workload long-series --seed 3 --seconds 25 --trace 0
//
// Every metric perfbench reports lower-is-better unless listed in
// -higher.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// result is the part of perfbench's result line benchab reads.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult extracts the named metrics from run.sh's standard output.
func parseResult(out []byte, metrics []string) (vals []float64, units []string, err error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !r.Correct || r.Failed > 0 {
		return nil, nil, fmt.Errorf("run reported correct=%v with %d failed operations", r.Correct, r.Failed)
	}
	for _, name := range metrics {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, nil, fmt.Errorf("result has no metric %q", name)
		}
		vals, units = append(vals, m.Value), append(units, m.Unit)
	}
	return vals, units, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// summary is the A/B comparison of one metric.
type summary struct {
	metric, unit string
	lowerBetter  bool
	a, b         []float64
}

// report renders the comparison: per-side quartiles, the B/A median
// ratio, B's wins over the pairs and the Wilcoxon p-value.
func (s summary) report() string {
	var out strings.Builder
	aq1, amed, aq3 := quartiles(s.a)
	bq1, bmed, bq3 := quartiles(s.b)
	fmt.Fprintf(&out, "metric %s (%s, %s is better), %d pairs\n", s.metric, s.unit, map[bool]string{true: "lower", false: "higher"}[s.lowerBetter], len(s.a))
	fmt.Fprintf(&out, "  A: median %.4g  IQR [%.4g, %.4g]\n", amed, aq1, aq3)
	fmt.Fprintf(&out, "  B: median %.4g  IQR [%.4g, %.4g]\n", bmed, bq1, bq3)
	wins := 0
	for i := range s.a {
		if (s.lowerBetter && s.b[i] < s.a[i]) || (!s.lowerBetter && s.b[i] > s.a[i]) {
			wins++
		}
	}
	ratio := bmed / amed
	fmt.Fprintf(&out, "  B/A median ratio %.4f (A/B %.3fx)\n", ratio, 1/ratio)
	fmt.Fprintf(&out, "  B better in %d/%d pairs\n", wins, len(s.a))
	fmt.Fprintf(&out, "  Wilcoxon signed-rank p = %.4g\n", stats.Wilcoxon(s.a, s.b).PValue)
	return out.String()
}

// runOnce runs the benchmark in dir and returns the metrics' values.
func runOnce(dir string, args, metrics []string, log io.Writer) ([]float64, []string, error) {
	cmd := exec.Command("bash", append([]string{"perfbench/run.sh"}, args...)...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = log
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", dir, err)
	}
	vals, units, err := parseResult(stdout.Bytes(), metrics)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", dir, err)
	}
	return vals, units, nil
}

func main() {
	dirA := flag.String("a", "", "checkout of the baseline (A) side")
	dirB := flag.String("b", "", "checkout of the candidate (B) side")
	pairs := flag.Int("pairs", 10, "number of A/B pairs")
	metricList := flag.String("metrics", "wall_s", "comma-separated result metrics to compare")
	higher := flag.String("higher", "", "comma-separated metrics where higher is better")
	verbose := flag.Bool("v", false, "pass run.sh's standard error through")
	flag.Parse()
	metrics := strings.Split(*metricList, ",")
	if *dirA == "" || *dirB == "" || *pairs < 1 || *metricList == "" {
		fmt.Fprintln(os.Stderr, "benchab: -a, -b and -metrics are required and -pairs must be positive")
		os.Exit(2)
	}
	log := io.Discard
	if *verbose {
		log = os.Stderr
	}
	sums := make([]summary, len(metrics))
	for k, m := range metrics {
		sums[k] = summary{metric: m, lowerBetter: !slices.Contains(strings.Split(*higher, ","), m)}
	}
	for p := 0; p < *pairs; p++ {
		var va, vb []float64
		order := []string{"A", "B"}
		if p%2 == 1 {
			order = []string{"B", "A"}
		}
		for _, side := range order {
			dir, dst := *dirA, &va
			if side == "B" {
				dir, dst = *dirB, &vb
			}
			vals, units, err := runOnce(dir, flag.Args(), metrics, log)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchab: pair %d side %s: %v\n", p+1, side, err)
				os.Exit(1)
			}
			*dst = vals
			for k := range sums {
				sums[k].unit = units[k]
			}
		}
		fmt.Printf("pair %2d:", p+1)
		for k := range sums {
			sums[k].a, sums[k].b = append(sums[k].a, va[k]), append(sums[k].b, vb[k])
			fmt.Printf("  %s A %.4g B %.4g", metrics[k], va[k], vb[k])
		}
		fmt.Println()
	}
	for _, s := range sums {
		fmt.Print(s.report())
	}
}
