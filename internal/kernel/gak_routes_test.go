package kernel_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// refLogK is the plain log-space GAK recursion — four exp and two log per
// cell — kept verbatim (bar the receiver) as the bitwise reference for the
// log-space route and its saturation shortcuts.
func refLogK(sigma float64, x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	twoSigmaSq := 2 * sigma * sigma
	// phi(i, j) = d^2/(2s^2) + log(2 - exp(-d^2/(2s^2))): the geometrically
	// divisible local kernel that keeps GAK positive definite.
	phi := func(a, b float64) float64 {
		d := a - b
		e := d * d / twoSigmaSq
		return e + math.Log(2-math.Exp(-e))
	}
	negInf := math.Inf(-1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = negInf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = negInf
		for j := 1; j <= m; j++ {
			cur[j] = refLogSumExp3(prev[j], cur[j-1], prev[j-1]) - phi(x[i-1], y[j-1])
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// refLogSumExp3 returns log(e^a + e^b + e^c) stably.
func refLogSumExp3(a, b, c float64) float64 {
	max := a
	if b > max {
		max = b
	}
	if c > max {
		max = c
	}
	if math.IsInf(max, -1) {
		return max
	}
	return max + math.Log(math.Exp(a-max)+math.Exp(b-max)+math.Exp(c-max))
}

// same is bitwise equality with NaN equal to NaN: which NaN payload an
// operation propagates depends on the operand order the compiler picks.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// agree is the oracle's relative agreement rule, with NaN equal to NaN.
func agree(a, b, tol float64) bool {
	if a == b || same(a, b) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// archivePairs returns two pairs of z-normalized archive series of length
// m (prefixes below 3 points, where resampling needs two end points).
func archivePairs(m int) [][2][]float64 {
	arch := dataset.GenerateArchive(dataset.ArchiveOptions{Seed: 3, Count: 2, MaxTrain: 4, MaxTest: 1})
	at := func(d, i int) []float64 {
		x := arch[d].Train[i]
		if m < 3 {
			return dataset.ZNormalize(x[:m])
		}
		return dataset.ZNormalize(dataset.Resample(x, m))
	}
	return [][2][]float64{{at(0, 0), at(0, 1)}, {at(0, 2), at(1, 0)}}
}

// TestGAKRoutesAgree runs GAK over every bandwidth of Table 4's grid at
// lengths 1 to 1500 on z-normalized archive data. The production
// recursion (linear space, finishing in log space from the last row that
// stayed normal) must agree with the log-space recursion within the
// oracle's log-space tier, and the log-space route with its saturation
// shortcuts must be bitwise the plain recursion. At the paper workload's
// length 48, the local kernel underflows in the first row at every
// sigma <= 0.1 and the table never leaves linear space at sigma >= 1; at
// 512 and beyond, rows outgrow the float64 exponent range at every sigma
// and the linear phase ends partway. The 1500-point case, at a quarter
// second per recursion, runs one pair and skips the plain-recursion
// comparison (the shortcuts act per cell, so length adds nothing there);
// under -short or the race detector it keeps three bandwidths.
func TestGAKRoutesAgree(t *testing.T) {
	for _, m := range []int{1, 2, 48, 512, 1500} {
		pairs := archivePairs(m)
		if m == 1500 {
			pairs = pairs[:1]
		}
		for _, c := range eval.GAKGrid().Candidates {
			g := c.(kernel.GAK)
			if m == 1500 && (testing.Short() || kernel.RaceEnabled) && g.Sigma != 0.1 && g.Sigma != 1 && g.Sigma != 20 {
				continue
			}
			for p, xy := range pairs {
				x, y := xy[0], xy[1]
				got, rows := kernel.GAKLogK(g, x, y)
				logSpace := kernel.GAKLogSpace(g, x, y)
				if !agree(got, logSpace, oracle.TolLogSpace) {
					t.Errorf("m=%d sigma=%g pair %d: log k %v (%d linear rows), log-space %v",
						m, g.Sigma, p, got, rows, logSpace)
				}
				if m < 1500 {
					if want := refLogK(g.Sigma, x, y); !same(logSpace, want) {
						t.Errorf("m=%d sigma=%g pair %d: log-space route %v, plain recursion %v",
							m, g.Sigma, p, logSpace, want)
					}
				}
				if m == 48 && g.Sigma <= 0.1 && rows != 0 {
					t.Errorf("m=48 sigma=%g pair %d: %d linear rows, want the log-space route", g.Sigma, p, rows)
				}
				if m == 48 && g.Sigma >= 1 && rows != m {
					t.Errorf("m=48 sigma=%g pair %d: %d linear rows, want all %d", g.Sigma, p, rows, m)
				}
			}
		}
	}
}

// TestLogSumExp3ShortcutBitwise compares the shortcut log-sum-exp against
// the plain one on saturated, borderline and non-finite operands.
func TestLogSumExp3ShortcutBitwise(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), -1, -37, -38, -38.5, -39, -40, -1e3, -1e17, 1e17, 5,
		math.Inf(-1), math.Inf(1), math.NaN()}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				got, want := kernel.LogSumExp3(a, b, c), refLogSumExp3(a, b, c)
				if !same(got, want) {
					t.Errorf("logSumExp3(%v, %v, %v) = %v, plain %v", a, b, c, got, want)
				}
			}
		}
	}
}

// fuzzPair decodes a fuzz payload into two series of the given length. An
// even mode byte reads raw little-endian float64 bit patterns (NaN
// payloads, infinities, signed zeros, subnormals); an odd one reads one
// small value per byte, with 127, 126 and 125 standing for NaN, +Inf and
// -Inf. Values past the end of the payload are 0.
func fuzzPair(data []byte, length int) (x, y []float64) {
	raw := len(data) > 0 && data[0]%2 == 0
	if len(data) > 0 {
		data = data[1:]
	}
	next := func() float64 {
		if raw {
			var b [8]byte
			copy(b[:], data)
			data = data[min(8, len(data)):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		if len(data) == 0 {
			return 0
		}
		v := int8(data[0])
		data = data[1:]
		switch v {
		case 127:
			return math.NaN()
		case 126:
			return math.Inf(1)
		case 125:
			return math.Inf(-1)
		}
		return float64(v) / 8
	}
	x, y = make([]float64, length), make([]float64, length)
	for i := range x {
		x[i] = next()
	}
	for i := range y {
		y[i] = next()
	}
	return x, y
}

// FuzzGAKRoutes checks GAK's two routes and the elastic kernels' exact
// symmetry on arbitrary payloads and bandwidths: the production recursion
// agrees with the log-space one within the oracle's log-space tier (and is
// bitwise the log-space one when it falls back in the first row), the
// log-space route is bitwise the plain recursion, and GAK and KDTW
// distances are bitwise symmetric. Bitwise here counts every NaN as equal:
// the self-kernel normalization adds two NaNs in argument order, and
// measure.Sanitize maps any NaN distance to +Inf. NaN, infinities, signed
// zeros, empty and constant series must never panic.
func FuzzGAKRoutes(f *testing.F) {
	f.Add(1.0, uint8(8), []byte{1, 8, 16, 24, 0, 8, 250, 200, 16, 8, 3, 4, 5, 6, 7, 8, 9})
	f.Add(0.1, uint8(0), []byte{})
	f.Add(20.0, uint8(4), []byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, sigma float64, length uint8, data []byte) {
		x, y := fuzzPair(data, int(length)%25)
		g := kernel.GAK{Sigma: sigma}
		got, rows := kernel.GAKLogK(g, x, y)
		logSpace := kernel.GAKLogSpace(g, x, y)
		if rows == 0 && !same(got, logSpace) {
			t.Fatalf("first-row fallback %v, log-space %v", got, logSpace)
		}
		if !agree(got, logSpace, oracle.TolLogSpace) {
			t.Fatalf("log k %v (%d linear rows), log-space %v", got, rows, logSpace)
		}
		if want := refLogK(sigma, x, y); !same(logSpace, want) {
			t.Fatalf("log-space route %v, plain recursion %v", logSpace, want)
		}
		for _, m := range []interface {
			Distance(x, y []float64) float64
		}{g, kernel.KDTW{Gamma: sigma}} {
			if a, b := m.Distance(x, y), m.Distance(y, x); !same(a, b) {
				t.Fatalf("%T: d(x,y) = %v, d(y,x) = %v", m, a, b)
			}
		}
	})
}
