package main

import (
	"strings"
	"testing"
)

func TestCompareJoinsAndFlags(t *testing.T) {
	old := []Record{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 200},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}
	new := []Record{
		{Name: "BenchmarkA", NsPerOp: 104}, // +4%: inside the 5% budget
		{Name: "BenchmarkB", NsPerOp: 250}, // +25%: regression
		{Name: "BenchmarkFresh", NsPerOp: 10},
	}
	rows := Compare(old, new)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if rows[0].Delta != 4 || rows[0].Missing != "" {
		t.Errorf("row A = %+v, want +4%% present", rows[0])
	}
	if rows[1].Delta != 25 {
		t.Errorf("row B delta = %v, want 25", rows[1].Delta)
	}
	if rows[2].Missing != "new" || rows[3].Missing != "old" {
		t.Errorf("missing flags wrong: %+v %+v", rows[2], rows[3])
	}

	reg := Regressions(rows, 5)
	if len(reg) != 1 || reg[0].Name != "BenchmarkB" {
		t.Fatalf("Regressions = %+v, want only BenchmarkB", reg)
	}
	// An improvement or a vanished benchmark must never fail the gate.
	if reg := Regressions(rows, 30); len(reg) != 0 {
		t.Errorf("Regressions(30%%) = %+v, want none", reg)
	}

	out := Render(rows, 5)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("render lacks the REGRESSION flag:\n%s", out)
	}
	if !strings.Contains(out, "gone") || !strings.Contains(out, "new") {
		t.Errorf("render lacks the missing markers:\n%s", out)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	rows := Compare([]Record{{Name: "BenchmarkZ", NsPerOp: 0}}, []Record{{Name: "BenchmarkZ", NsPerOp: 10}})
	if rows[0].Delta != 0 {
		t.Errorf("zero baseline delta = %v, want 0 (undefined ratios never fail the gate)", rows[0].Delta)
	}
}

func TestParseStampedAndLegacy(t *testing.T) {
	legacy, err := Parse([]byte(`[{"name": "BenchmarkA", "iterations": 3, "ns_per_op": 100}]`))
	if err != nil || legacy.Host != nil || len(legacy.Benchmarks) != 1 || legacy.Benchmarks[0].NsPerOp != 100 {
		t.Fatalf("legacy array: %+v, %v", legacy, err)
	}
	stamped, err := Parse([]byte(`{"host": {"cpu": "X", "gomaxprocs": 2, "go_version": "go1.24.0", "goos": "linux", "goarch": "amd64"},
		"benchmarks": [{"name": "BenchmarkA", "iterations": 3, "ns_per_op": 90}]}`))
	if err != nil || stamped.Host == nil || stamped.Host.GOMAXPROCS != 2 || stamped.Benchmarks[0].NsPerOp != 90 {
		t.Fatalf("stamped file: %+v, %v", stamped, err)
	}
	if _, err := Parse([]byte(`{"benchmarks": 3}`)); err == nil {
		t.Error("malformed file parsed without error")
	}
}

func TestHostWarning(t *testing.T) {
	a := &Host{CPU: "X", GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	same := *a
	if w := HostWarning(a, &same); w != "" {
		t.Errorf("equal hosts warned: %q", w)
	}
	other := *a
	other.GOMAXPROCS = 4
	if w := HostWarning(a, &other); !strings.Contains(w, "hosts differ") || !strings.Contains(w, "GOMAXPROCS=4") {
		t.Errorf("differing hosts: %q", w)
	}
	if w := HostWarning(nil, a); !strings.Contains(w, "old file records no host") {
		t.Errorf("legacy old file: %q", w)
	}
	if w := HostWarning(nil, nil); w == "" {
		t.Error("two legacy files compared without a warning")
	}
}
