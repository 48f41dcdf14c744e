package dataset

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFillMissingInterior(t *testing.T) {
	x := []float64{1, math.NaN(), 3}
	got := FillMissing(x)
	if got[1] != 2 {
		t.Fatalf("FillMissing = %v, want midpoint 2", got)
	}
	// Longer gap.
	x = []float64{0, math.NaN(), math.NaN(), 3}
	got = FillMissing(x)
	if got[1] != 1 || got[2] != 2 {
		t.Fatalf("FillMissing = %v, want [0 1 2 3]", got)
	}
}

func TestFillMissingEdges(t *testing.T) {
	x := []float64{math.NaN(), math.NaN(), 5, math.NaN()}
	got := FillMissing(x)
	want := []float64{5, 5, 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FillMissing = %v, want %v", got, want)
		}
	}
}

func TestFillMissingAllNaN(t *testing.T) {
	got := FillMissing([]float64{math.NaN(), math.NaN()})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("all-NaN should become zeros, got %v", got)
	}
}

func TestFillMissingDoesNotMutate(t *testing.T) {
	x := []float64{1, math.NaN(), 3}
	FillMissing(x)
	if !math.IsNaN(x[1]) {
		t.Fatal("input mutated")
	}
}

func TestResampleIdentity(t *testing.T) {
	x := []float64{1, 2, 3}
	got := Resample(x, 3)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("identity resample changed values: %v", got)
		}
	}
}

func TestResampleUpsample(t *testing.T) {
	x := []float64{0, 2}
	got := Resample(x, 5)
	want := []float64{0, 0.5, 1, 1.5, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Resample = %v, want %v", got, want)
		}
	}
}

func TestResamplePreservesEndpoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		target := 2 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		r := Resample(x, target)
		return len(r) == target &&
			math.Abs(r[0]-x[0]) < 1e-12 &&
			math.Abs(r[target-1]-x[n-1]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResampleConstant(t *testing.T) {
	got := Resample([]float64{7}, 4)
	for _, v := range got {
		if v != 7 {
			t.Fatalf("constant resample = %v", got)
		}
	}
}

func TestZNormalize(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	z := ZNormalize(x)
	var mean, ss float64
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	for _, v := range z {
		ss += (v - mean) * (v - mean)
	}
	std := math.Sqrt(ss / float64(len(z)))
	if math.Abs(mean) > 1e-12 || math.Abs(std-1) > 1e-12 {
		t.Fatalf("z-normalized mean=%g std=%g", mean, std)
	}
}

func TestZNormalizeConstant(t *testing.T) {
	z := ZNormalize([]float64{3, 3, 3})
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series should normalize to zeros, got %v", z)
		}
	}
}

func TestTSVRoundTrip(t *testing.T) {
	series := [][]float64{{1.5, -2, math.NaN()}, {0, 3.25, 9}}
	labels := []int{1, 2}
	var sb strings.Builder
	if err := WriteTSV(&sb, series, labels); err != nil {
		t.Fatal(err)
	}
	gotSeries, gotLabels, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSeries) != 2 || gotLabels[0] != 1 || gotLabels[1] != 2 {
		t.Fatalf("round trip labels %v", gotLabels)
	}
	for i := range series {
		for j := range series[i] {
			a, b := series[i][j], gotSeries[i][j]
			if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
				t.Fatalf("series[%d][%d] = %v, want %v", i, j, b, a)
			}
		}
	}
}

func TestReadTSVCommaSeparated(t *testing.T) {
	in := "1,0.5,0.6\n2,0.7,0.8\n"
	series, labels, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || labels[1] != 2 || series[1][1] != 0.8 {
		t.Fatalf("parsed %v %v", series, labels)
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, _, err := ReadTSV(strings.NewReader("notanumber\t1\n")); err == nil {
		t.Error("expected error for bad label")
	}
	if _, _, err := ReadTSV(strings.NewReader("1\tabc\n")); err == nil {
		t.Error("expected error for bad value")
	}
	if _, _, err := ReadTSV(strings.NewReader("1\n")); err == nil {
		t.Error("expected error for label-only line")
	}
}

func TestSaveLoadUCR(t *testing.T) {
	dir := t.TempDir()
	d := Generate(Config{
		Name: "RoundTrip", Family: FamilyHarmonic, Length: 32,
		NumClasses: 2, TrainSize: 6, TestSize: 4, Seed: 1, NoiseSigma: 0.1,
	})
	if err := SaveUCR(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadUCR(dir, "RoundTrip")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Length() != 32 || len(got.Train) != 6 || len(got.Test) != 4 {
		t.Fatalf("loaded shape: len=%d train=%d test=%d", got.Length(), len(got.Train), len(got.Test))
	}
	for i := range d.Train {
		for j := range d.Train[i] {
			if math.Abs(d.Train[i][j]-got.Train[i][j]) > 1e-9 {
				t.Fatalf("train[%d][%d] = %g, want %g", i, j, got.Train[i][j], d.Train[i][j])
			}
		}
	}
}

func TestLoadUCRResamplesAndFills(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a dataset with a short series and a missing value.
	base := dir + "/Ragged"
	if err := SaveUCR(dir, &Dataset{
		Name:        "Ragged",
		Train:       [][]float64{{1, 2, 3, 4}, {5, 6}},
		TrainLabels: []int{1, 2},
		Test:        [][]float64{{1, math.NaN(), 3, 4}},
		TestLabels:  []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	_ = base
	got, err := LoadUCR(dir, "Ragged")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("loaded dataset invalid: %v", err)
	}
	if got.Length() != 4 {
		t.Fatalf("length = %d, want 4 (longest)", got.Length())
	}
	if got.Test[0][1] != 2 {
		t.Fatalf("missing value not interpolated: %v", got.Test[0])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Name: "Det", Family: FamilyECG, Length: 64, NumClasses: 3,
		TrainSize: 9, TestSize: 6, Seed: 42, NoiseSigma: 0.2, ShiftFrac: 0.1,
	}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a.Train {
		for j := range a.Train[i] {
			if a.Train[i][j] != b.Train[i][j] {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestGenerateAllFamiliesValid(t *testing.T) {
	for fam := Family(0); fam < numFamilies; fam++ {
		cfg := Config{
			Name: "F" + fam.String(), Family: fam, Length: 50, NumClasses: 4,
			TrainSize: 8, TestSize: 8, Seed: int64(fam), NoiseSigma: 0.2,
			ShiftFrac: 0.1, WarpFrac: 0.1, OutlierProb: 0.01, AmpJitter: 0.2,
		}
		d := Generate(cfg)
		if err := d.Validate(); err != nil {
			t.Errorf("family %s: %v", fam, err)
		}
		if d.NumClasses() != 4 {
			t.Errorf("family %s: %d classes, want 4", fam, d.NumClasses())
		}
	}
}

func TestGenerateBalancedLabels(t *testing.T) {
	d := Generate(Config{
		Name: "Bal", Family: FamilyShapes, Length: 40, NumClasses: 2,
		TrainSize: 10, TestSize: 10, Seed: 5, NoiseSigma: 0.1,
	})
	counts := map[int]int{}
	for _, l := range d.TrainLabels {
		counts[l]++
	}
	if counts[1] != 5 || counts[2] != 5 {
		t.Fatalf("unbalanced labels: %v", counts)
	}
}

func TestGenerateSeriesAreZNormalized(t *testing.T) {
	d := Generate(Config{
		Name: "ZN", Family: FamilyBumps, Length: 64, NumClasses: 2,
		TrainSize: 4, TestSize: 4, Seed: 9, NoiseSigma: 0.3,
	})
	for _, s := range d.Train {
		var mean float64
		for _, v := range s {
			mean += v
		}
		mean /= float64(len(s))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("series mean %g, want 0", mean)
		}
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(Config{Name: "Bad", Length: 4, NumClasses: 1, TrainSize: 1, TestSize: 1})
}

func TestCircularShift(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	shifted := func(shift int) []float64 {
		got := slices.Clone(x)
		rotate(got, shift)
		return got
	}
	got := shifted(1)
	want := []float64{4, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift +1 = %v, want %v", got, want)
		}
	}
	got = shifted(-1)
	want = []float64{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift -1 = %v, want %v", got, want)
		}
	}
	// Full rotation is identity.
	got = shifted(4)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("shift by length = %v", got)
		}
	}
}

func TestWarpPreservesLengthAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(float64(i) / 5)
	}
	w := warp(x, 0.3, rng)
	if len(w) != len(x) {
		t.Fatalf("warp changed length: %d", len(w))
	}
	for _, v := range w {
		if v < -1.001 || v > 1.001 {
			t.Fatalf("warp out of range: %g", v)
		}
	}
}

func TestGenerateArchive(t *testing.T) {
	archive := GenerateArchive(ArchiveOptions{Seed: 1, Count: 16, MaxLength: 128, MaxTrain: 24, MaxTest: 32})
	if len(archive) != 16 {
		t.Fatalf("archive size %d, want 16", len(archive))
	}
	names := map[string]bool{}
	for _, d := range archive {
		if err := d.Validate(); err != nil {
			t.Errorf("dataset %s: %v", d.Name, err)
		}
		if names[d.Name] {
			t.Errorf("duplicate dataset name %s", d.Name)
		}
		names[d.Name] = true
		if d.Length() > 128 || len(d.Train) > 24 || len(d.Test) > 32 {
			t.Errorf("dataset %s exceeds caps: len=%d train=%d test=%d",
				d.Name, d.Length(), len(d.Train), len(d.Test))
		}
		if d.NumClasses() < 2 {
			t.Errorf("dataset %s has %d classes", d.Name, d.NumClasses())
		}
	}
}

func TestGenerateArchiveDeterministic(t *testing.T) {
	a := GenerateArchive(ArchiveOptions{Seed: 7, Count: 4})
	b := GenerateArchive(ArchiveOptions{Seed: 7, Count: 4})
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("archive names differ")
		}
		for j := range a[i].Train {
			for k := range a[i].Train[j] {
				if a[i].Train[j][k] != b[i].Train[j][k] {
					t.Fatal("archive not deterministic")
				}
			}
		}
	}
}

func TestSubsetTrain(t *testing.T) {
	d := Generate(Config{
		Name: "Sub", Family: FamilyHarmonic, Length: 32, NumClasses: 2,
		TrainSize: 10, TestSize: 4, Seed: 3, NoiseSigma: 0.1,
	})
	s := d.SubsetTrain(4)
	if len(s.Train) != 4 || len(s.TrainLabels) != 4 {
		t.Fatalf("subset sizes: %d/%d", len(s.Train), len(s.TrainLabels))
	}
	if len(s.Test) != 4 {
		t.Fatal("test split must be untouched")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversize subset")
		}
	}()
	d.SubsetTrain(11)
}

func TestCloneIndependence(t *testing.T) {
	d := Generate(Config{
		Name: "Clone", Family: FamilyDevice, Length: 32, NumClasses: 2,
		TrainSize: 4, TestSize: 2, Seed: 8, NoiseSigma: 0.1,
	})
	c := d.Clone()
	c.Train[0][0] = 999
	c.TrainLabels[0] = 99
	if d.Train[0][0] == 999 || d.TrainLabels[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	d := &Dataset{Name: "Bad", Train: [][]float64{{1, 2}}, TrainLabels: []int{1, 2}}
	if d.Validate() == nil {
		t.Error("label count mismatch not caught")
	}
	d = &Dataset{Name: "Bad", Train: [][]float64{{1, 2}, {1}}, TrainLabels: []int{1, 2}}
	if d.Validate() == nil {
		t.Error("ragged series not caught")
	}
	d = &Dataset{Name: "Bad", Train: [][]float64{{1, math.NaN()}}, TrainLabels: []int{1}}
	if d.Validate() == nil {
		t.Error("NaN not caught")
	}
}

func TestMovingAverage(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	got := movingAverage(x, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("movingAverage = %v, want %v", got, want)
		}
	}
	// Window 1 is identity.
	same := movingAverage(x, 1)
	for i := range x {
		if same[i] != x[i] {
			t.Fatal("window 1 should be identity")
		}
	}
}

// TestReadTSVLineEndings is the regression test for non-LF exports: CRLF
// files must not leave a stray CR in the last field, and lone-CR (classic
// Mac) files must not collapse into a single giant line.
func TestReadTSVLineEndings(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"crlf", "1\t0.5\t0.6\r\n2\t0.7\t0.8\r\n"},
		{"cr-only", "1\t0.5\t0.6\r2\t0.7\t0.8\r"},
		{"cr-no-final", "1\t0.5\t0.6\r2\t0.7\t0.8"},
		{"mixed", "1\t0.5\t0.6\r\n2\t0.7\t0.8\n"},
	}
	for _, c := range cases {
		series, labels, err := ReadTSV(strings.NewReader(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(series) != 2 || labels[0] != 1 || labels[1] != 2 {
			t.Errorf("%s: parsed %d series, labels %v, want 2 series [1 2]", c.name, len(series), labels)
			continue
		}
		if len(series[0]) != 2 || series[0][1] != 0.6 || series[1][1] != 0.8 {
			t.Errorf("%s: parsed series %v", c.name, series)
		}
	}
}

// TestReadTSVTrailingSeparators ensures a separator before the line ending
// does not append a phantom missing value to the series.
func TestReadTSVTrailingSeparators(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"trailing-tab", "1\t0.5\t0.6\t\n"},
		{"trailing-tabs", "1\t0.5\t0.6\t\t\n"},
		{"trailing-comma", "1,0.5,0.6,\n"},
		{"trailing-tab-crlf", "1\t0.5\t0.6\t\r\n"},
		{"trailing-space", "1\t0.5\t0.6 \n"},
	}
	for _, c := range cases {
		series, _, err := ReadTSV(strings.NewReader(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(series) != 1 || len(series[0]) != 2 {
			t.Errorf("%s: parsed %v, want one series of length 2", c.name, series)
			continue
		}
		if series[0][0] != 0.5 || series[0][1] != 0.6 {
			t.Errorf("%s: parsed %v", c.name, series[0])
		}
	}
}

// TestReadTSVAllMissingRow pins the all-NaN-row contract: a series with no
// observed values cannot be interpolated and must fail loudly at parse time
// instead of flowing NaN into every downstream distance.
func TestReadTSVAllMissingRow(t *testing.T) {
	if _, _, err := ReadTSV(strings.NewReader("1\tNaN\tNaN\tNaN\n")); err == nil {
		t.Error("expected error for all-NaN row")
	}
	if _, _, err := ReadTSV(strings.NewReader("1,NaN,,NaN\n")); err == nil {
		t.Error("expected error for all-missing row with empty fields")
	}
	// Partially missing rows remain legal: interpolation handles them.
	series, _, err := ReadTSV(strings.NewReader("1\tNaN\t0.5\tNaN\n"))
	if err != nil {
		t.Fatalf("partially missing row: %v", err)
	}
	if len(series) != 1 || !math.IsNaN(series[0][0]) || series[0][1] != 0.5 {
		t.Errorf("parsed %v", series)
	}
}
