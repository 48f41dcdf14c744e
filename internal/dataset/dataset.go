// Package dataset defines labelled time-series datasets with UCR-style
// train/test splits, readers and writers for the UCR tab-separated format,
// the resampling and missing-value interpolation steps the paper applies to
// the archive, and a deterministic synthetic archive generator that stands
// in for the UCR Time-Series Archive in offline runs (see DESIGN.md §4).
package dataset

import (
	"fmt"
	"math"
)

// Dataset is a class-labelled time-series dataset with a fixed train/test
// split, mirroring one UCR archive dataset. All series within a dataset
// have equal length after loading (shorter series are resampled and missing
// values interpolated, as in the paper).
type Dataset struct {
	Name        string
	Train       [][]float64
	TrainLabels []int
	Test        [][]float64
	TestLabels  []int
}

// Length returns the series length, or 0 for an empty dataset.
func (d *Dataset) Length() int {
	if len(d.Train) > 0 {
		return len(d.Train[0])
	}
	if len(d.Test) > 0 {
		return len(d.Test[0])
	}
	return 0
}

// NumClasses returns the number of distinct labels across both splits.
func (d *Dataset) NumClasses() int {
	seen := map[int]bool{}
	for _, l := range d.TrainLabels {
		seen[l] = true
	}
	for _, l := range d.TestLabels {
		seen[l] = true
	}
	return len(seen)
}

// Validate checks structural invariants: matching series/label counts,
// equal lengths, and finite values. It returns the first violation found.
func (d *Dataset) Validate() error {
	if len(d.Train) != len(d.TrainLabels) {
		return fmt.Errorf("dataset %s: %d train series, %d train labels", d.Name, len(d.Train), len(d.TrainLabels))
	}
	if len(d.Test) != len(d.TestLabels) {
		return fmt.Errorf("dataset %s: %d test series, %d test labels", d.Name, len(d.Test), len(d.TestLabels))
	}
	m := d.Length()
	check := func(split string, series [][]float64) error {
		for i, s := range series {
			if len(s) != m {
				return fmt.Errorf("dataset %s: %s series %d has length %d, want %d", d.Name, split, i, len(s), m)
			}
			for j, v := range s {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("dataset %s: %s series %d has non-finite value at %d", d.Name, split, i, j)
				}
			}
		}
		return nil
	}
	if err := check("train", d.Train); err != nil {
		return err
	}
	return check("test", d.Test)
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Name:        d.Name,
		Train:       make([][]float64, len(d.Train)),
		TrainLabels: append([]int(nil), d.TrainLabels...),
		Test:        make([][]float64, len(d.Test)),
		TestLabels:  append([]int(nil), d.TestLabels...),
	}
	for i, s := range d.Train {
		c.Train[i] = append([]float64(nil), s...)
	}
	for i, s := range d.Test {
		c.Test[i] = append([]float64(nil), s...)
	}
	return c
}

// SubsetTrain returns a shallow copy of d whose training split is reduced to
// the first n series (used by the Figure-10 convergence experiment). Labels
// follow the series. It panics if n exceeds the training size.
func (d *Dataset) SubsetTrain(n int) *Dataset {
	if n > len(d.Train) {
		panic(fmt.Sprintf("dataset %s: SubsetTrain(%d) exceeds %d", d.Name, n, len(d.Train)))
	}
	return &Dataset{
		Name:        d.Name,
		Train:       d.Train[:n],
		TrainLabels: d.TrainLabels[:n],
		Test:        d.Test,
		TestLabels:  d.TestLabels,
	}
}

// FillMissing replaces NaN entries by linear interpolation between the
// nearest finite neighbours; leading and trailing NaNs are filled with the
// nearest finite value. A series with no finite values becomes all zeros.
// This mirrors the paper's treatment of the archive's missing values.
func FillMissing(x []float64) []float64 {
	out := append([]float64(nil), x...)
	n := len(out)
	// Find the first finite value.
	first := -1
	for i, v := range out {
		if !math.IsNaN(v) {
			first = i
			break
		}
	}
	if first == -1 {
		for i := range out {
			out[i] = 0
		}
		return out
	}
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	last := first
	for i := first + 1; i < n; i++ {
		if math.IsNaN(out[i]) {
			continue
		}
		// Interpolate the gap (last, i).
		gap := i - last
		if gap > 1 {
			step := (out[i] - out[last]) / float64(gap)
			for k := 1; k < gap; k++ {
				out[last+k] = out[last] + step*float64(k)
			}
		}
		last = i
	}
	for i := last + 1; i < n; i++ {
		out[i] = out[last]
	}
	return out
}

// Resample linearly interpolates x to the target length, preserving the
// first and last samples. This is the paper's handling of varying-length
// datasets (stretch shorter series to the longest). It panics for target
// < 1 or an empty input.
func Resample(x []float64, target int) []float64 {
	if target < 1 {
		panic(fmt.Sprintf("dataset: Resample target %d < 1", target))
	}
	if len(x) == 0 {
		panic("dataset: Resample of empty series")
	}
	if len(x) == target {
		return append([]float64(nil), x...)
	}
	out := make([]float64, target)
	if len(x) == 1 {
		for i := range out {
			out[i] = x[0]
		}
		return out
	}
	scale := float64(len(x)-1) / float64(target-1)
	for i := range out {
		pos := float64(i) * scale
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out
}

// ZNormalize returns the z-scored copy of x (zero mean, unit variance). A
// constant series normalizes to all zeros. The archive is stored
// z-normalized, as in the UCR archive and the paper.
func ZNormalize(x []float64) []float64 {
	out := append(make([]float64, 0, len(x)), x...)
	zNormalizeInPlace(out)
	return out
}

// zNormalizeInPlace is ZNormalize overwriting x, for callers that own a
// fresh series (the synthetic generator), saving one copy per series.
func zNormalizeInPlace(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range x {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n))
	if std == 0 {
		clear(x)
		return
	}
	for i, v := range x {
		x[i] = (v - mean) / std
	}
}

// ZNormalizeAll z-normalizes every series of the dataset in place and
// returns it, mirroring the paper's preprocessing of all 128 datasets.
func (d *Dataset) ZNormalizeAll() *Dataset {
	for i, s := range d.Train {
		d.Train[i] = ZNormalize(s)
	}
	for i, s := range d.Test {
		d.Test[i] = ZNormalize(s)
	}
	return d
}
