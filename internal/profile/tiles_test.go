package profile_test

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/profile"
)

// joinOpts are the schedules every determinism check compares: serial,
// two and four workers, and the anytime order.
var joinOpts = []profile.Options{
	{Workers: 1},
	{Workers: 2},
	{Workers: 4},
	{Workers: 2, Anytime: true},
}

func join(t *testing.T, self bool, a, b []float64, w int, opts profile.Options) *profile.Result {
	t.Helper()
	var res *profile.Result
	var err error
	if self {
		res, err = profile.SelfJoin(context.Background(), a, w, opts)
	} else {
		res, err = profile.ABJoin(context.Background(), a, b, w, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTieLowestIndex pins the tie rule on exact correlation ties: a
// periodic series of small integers at a power-of-two window makes every
// mean, update term and streamed cross term exact, so windows that repeat
// bit-for-bit score bitwise-equal cells and each row ties across all its
// period-shifted neighbors. The lowest such index must win: for rows past
// the first period it lies below the row and reaches it through the column
// role of a self-join tile, for rows in the first period it lies above
// and comes through the row role, and with tiles of 3 to 16 rows the tied
// cells sit in tiles walked by different workers, so the cross-worker
// merge decides as well.
func TestTieLowestIndex(t *testing.T) {
	const period, w = 13, 8
	pattern := []float64{3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 0}
	series := make([]float64, 190)
	for k := range series {
		series[k] = pattern[k%period]
	}
	rows := len(series) - w + 1
	for _, rm := range refMeasures() {
		for _, edge := range []int{3, 5, 16} {
			for _, o := range joinOpts {
				o.Measure, o.BlockRows = rm.m, edge
				self := join(t, true, series, nil, w, o)
				ab := join(t, false, series, series, w, o)
				for i := 0; i < rows; i++ {
					want := i % period
					if want == i {
						want = i + period // the row itself is a trivial match
					}
					if self.Indices[i] != want {
						t.Fatalf("%s edge=%d %+v self row %d: neighbor %d, want %d",
							rm.m.Name(), edge, o, i, self.Indices[i], want)
					}
					if ab.Indices[i] != i%period {
						t.Fatalf("%s edge=%d %+v ab row %d: neighbor %d, want %d",
							rm.m.Name(), edge, o, i, ab.Indices[i], i%period)
					}
					if v := self.Values[i%period]; self.Values[i] != v || ab.Values[i] != v {
						t.Fatalf("%s edge=%d row %d: tied values differ: self %v ab %v, row %d %v",
							rm.m.Name(), edge, i, self.Values[i], ab.Values[i], i%period, v)
					}
				}
			}
		}
	}
}

// maskedNaive is the engine's contract spelled out per pair: windows
// holding a non-finite sample are masked (never a row's answer, never a
// neighbor) and the self-join exclusion zone is skipped.
func maskedNaive(dist func(x, y []float64) float64, a, b []float64, w int, self bool) []float64 {
	excl := 0
	if self {
		excl = max(1, w/2)
	}
	rows, cols := len(a)-w+1, len(b)-w+1
	vals := make([]float64, rows)
	for i := 0; i < rows; i++ {
		vals[i] = math.Inf(1)
		if masked(a[i : i+w]) {
			continue
		}
		for j := 0; j < cols; j++ {
			if (self && j >= i-excl && j <= i+excl) || masked(b[j:j+w]) {
				continue
			}
			if d := dist(a[i:i+w], b[j:j+w]); d < vals[i] {
				vals[i] = d
			}
		}
	}
	return vals
}

// masked reports whether a window holds a non-finite sample.
func masked(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// agreeSq is the oracle's profile agreement: TolFFT on the distances or on
// their squares, since the final square root amplifies rounding near 0.
func agreeSq(a, b float64) bool { return approx(a, b) || approx(a*a, b*b) }

// fuzzSeries decodes a fuzz payload into a series of length n. With an
// even first byte, samples are raw float64 bit patterns: non-finite ones
// stay, finite ones are folded onto the 1/16 grid in (-16, 16), which
// bounds the dynamic range the streamed cross terms are accurate over
// (the oracle skips extreme magnitudes for the same reason). With an odd
// first byte, each byte is one sample v/8 of the int8 v, except that 127,
// 126 and 125 stand for NaN, +Inf and -Inf. An exhausted payload pads
// with zeros, so short payloads end in constant runs.
func fuzzSeries(data []byte, n int) ([]float64, []byte) {
	raw := len(data) > 0 && data[0]%2 == 0
	if len(data) > 0 {
		data = data[1:]
	}
	s := make([]float64, n)
	for k := range s {
		if raw {
			var b [8]byte
			copy(b[:], data)
			data = data[min(8, len(data)):]
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				v = math.Round(math.Mod(v, 16)*16) / 16
			}
			s[k] = v
			continue
		}
		if len(data) == 0 {
			continue
		}
		v := int8(data[0])
		data = data[1:]
		switch v {
		case 127:
			s[k] = math.NaN()
		case 126:
			s[k] = math.Inf(1)
		case 125:
			s[k] = math.Inf(-1)
		default:
			s[k] = float64(v) / 8
		}
	}
	return s, data
}

// FuzzProfileJoin checks every measure's self-join and AB-join on
// arbitrary payloads (NaN, ±Inf, constant runs, exact ties) against the
// masked per-pair scan, recomputes every claimed neighbor, and requires
// bitwise-equal results across worker counts and the anytime schedule.
func FuzzProfileJoin(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(20), uint8(17), false, []byte{1, 8, 16, 24, 0, 8, 250, 200, 16, 8, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), uint8(1), uint8(9), uint8(9), true, []byte{})
	f.Add(uint8(5), uint8(7), uint8(30), uint8(12), true, []byte{3, 8, 127, 16, 126, 8, 8, 8, 8, 125, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, window, edge, lenA, lenB uint8, twoWorkers bool, data []byte) {
		a, data := fuzzSeries(data, int(lenA)%48)
		b, _ := fuzzSeries(data, int(lenB)%48)
		n := min(len(a), len(b))
		if n < 2 {
			return
		}
		w := 2 + int(window)%(n-1)
		workers := 1
		if twoWorkers {
			workers = 2
		}
		for _, rm := range refMeasures() {
			for _, self := range []bool{true, false} {
				o := profile.Options{Measure: rm.m, BlockRows: 1 + int(edge)%16, Workers: workers}
				res := join(t, self, a, b, w, o)
				target := b
				if self {
					target = a
				}
				vals := maskedNaive(rm.dist, a, target, w, self)
				if res.Completed != 1 {
					t.Fatalf("%s self=%v: Completed %v", rm.m.Name(), self, res.Completed)
				}
				for i, want := range vals {
					got, j := res.Values[i], res.Indices[i]
					if !res.Done[i] || !agreeSq(got, want) {
						t.Fatalf("%s self=%v w=%d row %d: engine %v (done %v), masked scan %v",
							rm.m.Name(), self, w, i, got, res.Done[i], want)
					}
					if j < 0 {
						if !math.IsInf(got, 1) {
							t.Fatalf("%s self=%v row %d: no neighbor but value %v", rm.m.Name(), self, i, got)
						}
						continue
					}
					if (self && j >= i-res.Exclusion && j <= i+res.Exclusion) || masked(target[j:j+w]) {
						t.Fatalf("%s self=%v row %d: neighbor %d is excluded or masked", rm.m.Name(), self, i, j)
					}
					if d := rm.dist(a[i:i+w], target[j:j+w]); !agreeSq(got, d) {
						t.Fatalf("%s self=%v row %d: claimed neighbor %d recomputes to %v, engine %v",
							rm.m.Name(), self, i, j, d, got)
					}
				}
				o.Workers, o.Anytime = 3-workers, true
				other := join(t, self, a, b, w, o)
				for i := range vals {
					if math.Float64bits(other.Values[i]) != math.Float64bits(res.Values[i]) ||
						other.Indices[i] != res.Indices[i] {
						t.Fatalf("%s self=%v row %d: %v/%d at workers=%d, %v/%d anytime at workers=%d",
							rm.m.Name(), self, i, res.Values[i], res.Indices[i], workers,
							other.Values[i], other.Indices[i], o.Workers)
					}
				}
			}
		}
	})
}
