// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON object: a host stamp (CPU model, GOMAXPROCS, Go version,
// OS and architecture) and an array of {name, ns_per_op, bytes_per_op,
// allocs_per_op} records. The raw benchmark lines are echoed to stdout
// unchanged so the command can sit at the end of a pipeline without hiding
// the run; the JSON goes to the file named by -o (or stdout when -o is
// empty).
//
// The CPU model comes from the `cpu:` header `go test` prints and
// GOMAXPROCS from the benchmark names' -N suffix; the Go version is the
// toolchain benchjson itself was built with, which under `go run` in the
// same pipeline is the one that ran the benchmarks.
//
// When a benchmark name repeats (a `go test -count=N` run), the record
// keeps the minimum ns/op across repetitions: co-tenant interference on
// shared machines only ever adds time, so min-of-N estimates the
// benchmark's true cost far more stably than any single sample — this is
// what makes the bench-compare regression gate usable on noisy hosts.
//
// Usage:
//
//	go test -bench GridTuning -count=3 -benchmem ./internal/search | benchjson -o BENCH_tuning.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Host identifies the machine and toolchain a benchmark file was recorded
// on, so comparisons across files can tell a host change from a code
// change.
type Host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// File is the JSON document benchjson writes.
type File struct {
	Host       Host     `json:"host"`
	Benchmarks []Record `json:"benchmarks"`
}

// Record is one benchmark result. GOMAXPROCS suffixes are stripped from
// the name so committed files do not encode the build machine's core
// count; the measured values, of course, still do.
type Record struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// benchLineRE matches the tabular result line `go test -bench` prints:
// name, iteration count, ns/op, and optionally the -benchmem columns.
var benchLineRE = regexp.MustCompile(
	`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("o", "", "write the JSON array to this file (default stdout)")
	flag.Parse()

	var records []Record
	index := map[string]int{} // name -> position in records
	host := Host{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			host.CPU = strings.TrimSpace(cpu)
		}
		m := benchLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if m[2] != "" {
			host.GOMAXPROCS, _ = strconv.Atoi(m[2][1:])
		} else {
			host.GOMAXPROCS = 1 // go test omits the suffix at GOMAXPROCS=1
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		ns, _ := strconv.ParseFloat(m[4], 64)
		rec := Record{Name: m[1], Iterations: iters, NsPerOp: ns}
		if m[5] != "" {
			rec.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			rec.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		if at, seen := index[rec.Name]; seen {
			if rec.NsPerOp < records[at].NsPerOp {
				records[at] = rec
			}
			continue
		}
		index[rec.Name] = len(records)
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(File{Host: host, Benchmarks: records}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("[benchmark results written to %s]\n", *out)
}
