package repro_test

import (
	"fmt"
	"math"

	repro "repro"
)

// ExampleSBD shows the defining property of the sliding measures: a
// shifted copy of a pattern is recognized as nearly identical, where the
// Euclidean distance sees it as far.
func ExampleSBD() {
	m := 64
	x := make([]float64, m)
	for i := 20; i < 30; i++ {
		x[i] = 1
	}
	shifted := make([]float64, m)
	copy(shifted[10:], x[:m-10]) // the same bump, 10 steps later

	zx := repro.ZNormalize(x)
	zs := repro.ZNormalize(shifted)
	fmt.Printf("SBD: %.2f\n", repro.SBD().Distance(zx, zs))
	fmt.Printf("ED:  %.2f\n", repro.Euclidean().Distance(zx, zs))
	// Output:
	// SBD: 0.03
	// ED:  12.32
}

// ExampleDTW shows dynamic time warping absorbing a local time distortion
// that the lock-step Euclidean distance pays in full.
func ExampleDTW() {
	m := 64
	x := make([]float64, m)
	warped := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 32)
		w := float64(i) + 4*math.Sin(2*math.Pi*float64(i)/float64(m))
		warped[i] = math.Sin(2 * math.Pi * w / 32)
	}
	dtw := repro.DTW(20).Distance(x, warped)
	var sqED float64
	for i := range x {
		d := x[i] - warped[i]
		sqED += d * d
	}
	fmt.Printf("DTW much smaller than squared ED: %v\n", dtw < sqED/10)
	// Output:
	// DTW much smaller than squared ED: true
}

// ExampleWilcoxon runs the paper's pairwise statistical test on two
// accuracy vectors.
func ExampleWilcoxon() {
	measureA := []float64{0.91, 0.85, 0.88, 0.90, 0.87, 0.93, 0.89, 0.86, 0.92, 0.88, 0.90, 0.87}
	measureB := []float64{0.85, 0.80, 0.84, 0.85, 0.80, 0.88, 0.85, 0.80, 0.86, 0.84, 0.85, 0.81}
	r := repro.Wilcoxon(measureA, measureB)
	fmt.Printf("wins=%d ties=%d losses=%d significant=%v\n",
		r.Wins, r.Ties, r.Losses, r.PValue < 0.05)
	// Output:
	// wins=12 ties=0 losses=0 significant=true
}

// ExampleFriedman ranks three measures over five datasets with the
// Friedman/Nemenyi machinery behind the paper's critical-difference
// figures.
func ExampleFriedman() {
	// scores[dataset][measure], higher is better.
	scores := [][]float64{
		{0.9, 0.8, 0.5},
		{0.92, 0.79, 0.55},
		{0.88, 0.82, 0.52},
		{0.91, 0.78, 0.60},
		{0.89, 0.81, 0.51},
	}
	f := repro.Friedman(scores, 0.10)
	fmt.Printf("ranks: %.1f %.1f %.1f\n", f.AvgRanks[0], f.AvgRanks[1], f.AvgRanks[2])
	fmt.Printf("significant: %v\n", f.Significant)
	// Output:
	// ranks: 1.0 2.0 3.0
	// significant: true
}

// ExampleTestAccuracy evaluates one measure on a generated dataset with
// the paper's 1-NN framework.
func ExampleTestAccuracy() {
	d := repro.GenerateDataset(repro.DatasetConfig{
		Name: "docs", Family: repro.FamilyHarmonic, Length: 64,
		NumClasses: 2, TrainSize: 10, TestSize: 10, Seed: 7, NoiseSigma: 0.1,
	})
	acc := repro.TestAccuracy(repro.Euclidean(), d, repro.ZScore())
	fmt.Printf("accuracy in [0,1]: %v\n", acc >= 0 && acc <= 1)
	// Output:
	// accuracy in [0,1]: true
}

// ExampleNewSAX demonstrates the SAX symbolic representation and its
// MINDIST lower bound of the Euclidean distance.
func ExampleNewSAX() {
	s := repro.NewSAX(4, 4)
	x := repro.ZNormalize([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	y := repro.ZNormalize([]float64{8, 7, 6, 5, 4, 3, 2, 1})
	wx, wy := s.Symbolize(x), s.Symbolize(y)
	fmt.Println("word x:", wx)
	fmt.Println("word y:", wy)
	lb := s.MinDist(wx, wy, 8)
	ed := repro.Euclidean().Distance(x, y)
	fmt.Printf("MINDIST <= ED: %v\n", lb <= ed)
	// Output:
	// word x: [0 1 2 3]
	// word y: [3 2 1 0]
	// MINDIST <= ED: true
}

// ExampleMotif finds a planted repeated pattern with the matrix profile.
func ExampleMotif() {
	n := 240
	t := make([]float64, n)
	for i := range t {
		t[i] = math.Sin(float64(i)) * 0.05
	}
	pattern := []float64{0, 1, 3, 1, 0, -1, -3, -1, 0, 2, 4, 2, 0, -2, -4, -2, 0, 1, 2, 1}
	copy(t[40:], pattern)
	copy(t[160:], pattern)
	i, j, _, err := repro.Motif(t, len(pattern))
	if err != nil {
		fmt.Println(err)
		return
	}
	if i > j {
		i, j = j, i
	}
	fmt.Printf("motif near 40 and 160: %v\n", i >= 35 && i <= 45 && j >= 155 && j <= 165)
	// Output:
	// motif near 40 and 160: true
}

// ExampleKShape clusters shifted copies of two patterns.
func ExampleKShape() {
	m := 48
	var series [][]float64
	for i := 0; i < 12; i++ {
		freq := float64(i%2 + 1)
		shift := (i * 7) % m
		s := make([]float64, m)
		for j := range s {
			s[j] = math.Sin(2 * math.Pi * freq * float64((j+shift)%m) / float64(m))
		}
		series = append(series, repro.ZNormalize(s))
	}
	res := repro.KShapeRestarts(series, repro.KShapeConfig{K: 2, Seed: 1}, 3)
	// Instances alternate classes, so labels must alternate too (up to
	// cluster renaming).
	agree := true
	for i := 2; i < len(res.Labels); i++ {
		if res.Labels[i] != res.Labels[i-2] {
			agree = false
		}
	}
	fmt.Printf("recovered alternating classes: %v\n", agree)
	// Output:
	// recovered alternating classes: true
}
