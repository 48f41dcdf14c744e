// Command benchcompare diffs two benchjson files (see cmd/benchjson) in
// the style of benchstat: one line per benchmark with the old and new
// ns/op and the delta. It exits non-zero when any benchmark present in
// both files slowed down by more than -threshold percent, so it can gate
// CI on the committed BENCH_* baselines.
//
// Benchmarks present in only one file are reported but never fail the
// comparison — renames and additions are not regressions.
//
// Both files may carry a host stamp (CPU model, GOMAXPROCS, Go version);
// when the stamps differ, a warning goes to standard error, since the
// deltas then mix a host change with the code change. Legacy files, a bare
// JSON array of records without a stamp, are still read.
//
// Usage:
//
//	go test -bench Hotloops -benchmem ./internal/elastic | benchjson -o new.json
//	benchcompare -old BENCH_hotloops.json -new new.json -threshold 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// Record mirrors cmd/benchjson's output schema.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Host mirrors cmd/benchjson's host stamp.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// File mirrors cmd/benchjson's output document. Host is nil for legacy
// files.
type File struct {
	Host       *Host    `json:"host"`
	Benchmarks []Record `json:"benchmarks"`
}

// HostWarning describes why two files' timings are not comparable as a
// pure code change, or returns "" when both hosts are stamped and equal.
func HostWarning(old, new *Host) string {
	switch {
	case old == nil && new == nil:
		return "neither file records its host; deltas may include a host change"
	case old == nil:
		return "the old file records no host; deltas may include a host change"
	case new == nil:
		return "the new file records no host; deltas may include a host change"
	case *old != *new:
		return fmt.Sprintf("hosts differ (old: %s; new: %s); deltas include the host change",
			old.describe(), new.describe())
	}
	return ""
}

func (h *Host) describe() string {
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s %s/%s", h.CPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
}

// Row is one comparison line. Delta is the relative ns/op change in
// percent (positive = slower); Missing marks benchmarks present in only
// one of the two files.
type Row struct {
	Name     string
	Old, New float64 // ns/op; 0 when Missing
	Delta    float64
	Missing  string // "" | "old" | "new"
}

// Compare joins the two record sets by name, preserving the old file's
// order and appending new-only benchmarks at the end.
func Compare(old, new []Record) []Row {
	newByName := map[string]Record{}
	for _, r := range new {
		newByName[r.Name] = r
	}
	seen := map[string]bool{}
	rows := make([]Row, 0, len(old)+len(new))
	for _, o := range old {
		seen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			rows = append(rows, Row{Name: o.Name, Old: o.NsPerOp, Missing: "new"})
			continue
		}
		row := Row{Name: o.Name, Old: o.NsPerOp, New: n.NsPerOp}
		if o.NsPerOp > 0 {
			row.Delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		rows = append(rows, row)
	}
	for _, n := range new {
		if !seen[n.Name] {
			rows = append(rows, Row{Name: n.Name, New: n.NsPerOp, Missing: "old"})
		}
	}
	return rows
}

// Regressions returns the rows whose slowdown exceeds the threshold (in
// percent). Missing rows never count.
func Regressions(rows []Row, threshold float64) []Row {
	var out []Row
	for _, r := range rows {
		if r.Missing == "" && r.Delta > threshold {
			out = append(out, r)
		}
	}
	return out
}

// Render formats the comparison as an aligned table.
func Render(rows []Row, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-56s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, r := range rows {
		switch r.Missing {
		case "new":
			fmt.Fprintf(&b, "%-56s %14.0f %14s %9s\n", r.Name, r.Old, "-", "gone")
		case "old":
			fmt.Fprintf(&b, "%-56s %14s %14.0f %9s\n", r.Name, "-", r.New, "new")
		default:
			flag := ""
			if r.Delta > threshold {
				flag = "  REGRESSION"
			}
			fmt.Fprintf(&b, "%-56s %14.0f %14.0f %+8.2f%%%s\n", r.Name, r.Old, r.New, r.Delta, flag)
		}
	}
	return b.String()
}

// Parse reads a benchjson document: the stamped object form, or the
// legacy bare array of records.
func Parse(data []byte) (File, error) {
	var f File
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '[' {
		err := json.Unmarshal(t, &f.Benchmarks)
		return f, err
	}
	err := json.Unmarshal(data, &f)
	return f, err
}

func readFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	f, err := Parse(data)
	if err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline benchjson file")
	newPath := flag.String("new", "", "candidate benchjson file")
	threshold := flag.Float64("threshold", 5, "fail when ns/op grows by more than this percent")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -old and -new are both required")
		os.Exit(2)
	}
	oldFile, err := readFile(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	newFile, err := readFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	if w := HostWarning(oldFile.Host, newFile.Host); w != "" {
		fmt.Fprintf(os.Stderr, "benchcompare: warning: %s\n", w)
	}
	rows := Compare(oldFile.Benchmarks, newFile.Benchmarks)
	os.Stdout.WriteString(Render(rows, *threshold))
	if reg := Regressions(rows, *threshold); len(reg) > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d benchmark(s) regressed beyond %.1f%%\n", len(reg), *threshold)
		os.Exit(1)
	}
}
