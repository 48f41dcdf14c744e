package main

import (
	"strings"
	"testing"
)

func TestParseResult(t *testing.T) {
	out := []byte("# host x\n# passes 3\n" +
		`{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}` + "\n")
	v, unit, err := parseResult(out, []string{"wall_s"})
	if err != nil || v[0] != 0.5 || unit[0] != "s" {
		t.Fatalf("parseResult = %v %q %v", v, unit, err)
	}
	if _, _, err := parseResult(out, []string{"wall_s", "cpu_s"}); err == nil {
		t.Error("missing metric parsed without error")
	}
	bad := []byte(`{"correct": false, "failed": 2, "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}`)
	if _, _, err := parseResult(bad, []string{"wall_s"}); err == nil {
		t.Error("a run with failed operations was accepted")
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{1, 2, 3, 4}); med != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", med)
	}
}

func TestReport(t *testing.T) {
	s := summary{metric: "wall_s", unit: "s", lowerBetter: true,
		a: []float64{2.0, 2.1, 1.9, 2.2, 2.0, 2.05, 1.95, 2.1, 2.0, 2.15},
		b: []float64{1.0, 1.1, 0.9, 1.2, 1.0, 1.05, 2.5, 1.1, 1.0, 1.15}}
	out := s.report()
	for _, want := range []string{"B better in 9/10 pairs", "B/A median ratio 0.5", "Wilcoxon signed-rank p = "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
