// Motif discovery and anomaly detection: two of the time-series mining
// tasks the paper's introduction motivates, built on the FFT-based
// subsequence-search substrate (the MASS distance profile and the matrix
// profile). A long sensor-like recording is synthesized with a repeated
// hidden pattern (the motif) and one corrupted region (the discord); the
// matrix profile localizes both.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"

	repro "repro"
)

func main() {
	const (
		n      = 1200
		window = 60
	)
	rng := rand.New(rand.NewSource(7))

	// Baseline: daily-cycle-like oscillation plus noise.
	t := make([]float64, n)
	for i := range t {
		t[i] = 0.8*math.Sin(2*math.Pi*float64(i)/200) + 0.35*rng.NormFloat64()
	}
	// Hidden motif: the same sharp double-peak planted twice.
	pattern := make([]float64, window)
	for i := range pattern {
		x := float64(i) / float64(window)
		pattern[i] = 3*math.Exp(-100*(x-0.3)*(x-0.3)) + 2.2*math.Exp(-120*(x-0.7)*(x-0.7))
	}
	plant := func(at int) {
		for i, v := range pattern {
			t[at+i] += v
		}
	}
	plant(150)
	plant(800)
	// Anomaly: a flat-lined sensor dropout, longer than the window so the
	// affected subsequences have no genuine neighbor anywhere.
	for i := 500; i < 590; i++ {
		t[i] = t[499]
	}

	fmt.Printf("series length %d, window %d\n\n", n, window)

	// Motif discovery via the matrix profile.
	i, j, dist, err := repro.Motif(t, window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("motif pair: offsets %d and %d (distance %.4f)\n", i, j, dist)
	fmt.Printf("planted at: offsets 150 and 800\n\n")

	// Anomaly detection: the discord.
	offset, ddist, err := repro.Discord(t, window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discord: offset %d (distance %.4f); dropout planted at 500-590\n\n", offset, ddist)

	// Query search: find every occurrence of the pattern with MASS.
	matches := repro.TopKMatches(t, pattern, 3)
	fmt.Println("top-3 matches for the pattern (MASS distance profile):")
	for rank, m := range matches {
		fmt.Printf("  #%d offset=%-5d distance=%.4f\n", rank+1, m.Offset, m.Distance)
	}

	// A coarse ASCII rendering of the matrix profile: peaks mark anomalies,
	// valleys mark motifs.
	profile, _, err := repro.MatrixProfile(t, window)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmatrix profile (binned; high = anomalous, low = repeated):")
	fmt.Println(sparkline(profile, 80))
}

// sparkline renders values as a one-line bar chart of the given width.
func sparkline(v []float64, width int) string {
	levels := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if math.IsInf(x, 0) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	per := (len(v) + width - 1) / width
	for start := 0; start < len(v); start += per {
		end := start + per
		if end > len(v) {
			end = len(v)
		}
		max := lo
		for _, x := range v[start:end] {
			if !math.IsInf(x, 0) && x > max {
				max = x
			}
		}
		idx := int((max - lo) / (hi - lo) * float64(len(levels)-1))
		b.WriteByte(levels[idx])
	}
	return b.String()
}
