package elastic_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/multivariate"
)

// This file pins the elastic kernels bitwise against plain recurrences:
// the two-row DPs written the straightforward way — math.Min/math.Max,
// every operand in its textbook order, the left neighbor re-read from
// cur[j-1] — kept verbatim (bar receivers turned into parameters and
// pooled rows into fresh ones) as the bitwise reference. The production
// kernels regroup builtin min/max to keep one min on the loop-carried
// chain; that is exact, so every production route — Distance, DTW's
// DistanceUpTo(+Inf), the blocked wavefront and the d=1 multivariate
// dependent twins — must return the very same bits, NaN equal to NaN.
// Reassociating any addition moves low bits on the inputs below and fails.

// refWindow is windowSize: the band half-width for a percentage of m.
func refWindow(deltaPercent int, m int) int {
	if deltaPercent >= 100 {
		return m
	}
	w := deltaPercent * m / 100
	if w < 1 {
		w = 1
	}
	return w
}

// refDTW is banded DTW with per-row early abandoning at cutoff. A NaN
// cutoff never abandons (no comparison with NaN holds), which is the full
// DP the wavefront evaluates.
func refDTW(deltaPercent int, x, y []float64, cutoff float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	w := refWindow(deltaPercent, m)
	inf := math.Inf(1)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > m {
			hi = m
		}
		cur[lo-1] = inf
		if hi < m {
			cur[hi+1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			c := x[i-1] - y[j-1]
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if cur[j-1] < best {
				best = cur[j-1] // deletion
			}
			v := c*c + best
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin >= cutoff {
			return rowMin
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func refLCSS(deltaPercent int, epsilon float64, x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	w := refWindow(deltaPercent, m)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > m {
			hi = m
		}
		cur[lo-1] = 0
		if hi < m {
			cur[hi+1] = 0
		}
		for j := lo; j <= hi; j++ {
			if math.Abs(x[i-1]-y[j-1]) <= epsilon {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = math.Max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return 1 - prev[m]/float64(m)
}

func refEDR(epsilon float64, x, y []float64) float64 {
	m := len(x)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= m; i++ {
		cur[0] = float64(i)
		for j := 1; j <= m; j++ {
			subCost := 1.0
			if math.Abs(x[i-1]-y[j-1]) <= epsilon {
				subCost = 0
			}
			best := prev[j-1] + subCost
			if v := prev[j] + 1; v < best {
				best = v
			}
			if v := cur[j-1] + 1; v < best {
				best = v
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func refERP(g float64, x, y []float64) float64 {
	m := len(x)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + math.Abs(y[j-1]-g)
	}
	for i := 1; i <= m; i++ {
		cur[0] = prev[0] + math.Abs(x[i-1]-g)
		for j := 1; j <= m; j++ {
			match := prev[j-1] + math.Abs(x[i-1]-y[j-1])
			gapX := prev[j] + math.Abs(x[i-1]-g)
			gapY := cur[j-1] + math.Abs(y[j-1]-g)
			cur[j] = math.Min(match, math.Min(gapX, gapY))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func refMSMCost(c, newPoint, a, b float64) float64 {
	if (a <= newPoint && newPoint <= b) || (b <= newPoint && newPoint <= a) {
		return c
	}
	return c + math.Min(math.Abs(newPoint-a), math.Abs(newPoint-b))
}

func refMSM(c float64, x, y []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	prev, cur := make([]float64, n), make([]float64, n)
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j < n; j++ {
		prev[j] = prev[j-1] + refMSMCost(c, y[j], x[0], y[j-1])
	}
	for i := 1; i < n; i++ {
		cur[0] = prev[0] + refMSMCost(c, x[i], x[i-1], y[0])
		for j := 1; j < n; j++ {
			move := prev[j-1] + math.Abs(x[i]-y[j])
			split := prev[j] + refMSMCost(c, x[i], x[i-1], y[j])
			merge := cur[j-1] + refMSMCost(c, y[j], x[i], y[j-1])
			cur[j] = math.Min(move, math.Min(split, merge))
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

func refTWE(lambda, nu float64, x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	inf := math.Inf(1)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = inf
		xi := x[i-1]
		xim := 0.0
		if i > 1 {
			xim = x[i-2]
		}
		for j := 1; j <= m; j++ {
			yj := y[j-1]
			yjm := 0.0
			if j > 1 {
				yjm = y[j-2]
			}
			delA := prev[j] + math.Abs(xi-xim) + nu + lambda
			delB := cur[j-1] + math.Abs(yj-yjm) + nu + lambda
			match := prev[j-1] + math.Abs(xi-yj) + math.Abs(xim-yjm) +
				2*nu*math.Abs(float64(i-j))
			cur[j] = math.Min(match, math.Min(delA, delB))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func refSwale(epsilon, p, r float64, x, y []float64) float64 {
	m := len(x)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = -p * float64(j)
	}
	for i := 1; i <= m; i++ {
		cur[0] = -p * float64(i)
		for j := 1; j <= m; j++ {
			if math.Abs(x[i-1]-y[j-1]) <= epsilon {
				cur[j] = prev[j-1] + r
			} else {
				cur[j] = math.Max(prev[j], cur[j-1]) - p
			}
		}
		prev, cur = cur, prev
	}
	return -prev[m]
}

func refWDTW(g, wmax float64, x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	if wmax == 0 {
		wmax = 1
	}
	weights := make([]float64, m)
	mid := float64(m) / 2
	for a := range weights {
		weights[a] = wmax / (1 + math.Exp(-g*(float64(a)-mid)))
	}
	inf := math.Inf(1)
	prev, cur := make([]float64, m+1), make([]float64, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = inf
		for j := 1; j <= m; j++ {
			diff := x[i-1] - y[j-1]
			phase := i - j
			if phase < 0 {
				phase = -phase
			}
			c := weights[phase] * diff * diff
			best := prev[j-1]
			if prev[j] < best {
				best = prev[j]
			}
			if cur[j-1] < best {
				best = cur[j-1]
			}
			cur[j] = c + best
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// same is bitwise equality with NaN equal to NaN: which NaN payload a min
// propagates depends on operand order, and nothing downstream reads it.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// wavefronter is the blocked route of the measures that have one.
type wavefronter interface {
	DistanceWavefront(ctx context.Context, x, y []float64) (float64, error)
}

// kernelCase is one production measure with its reference: ref is the
// plain recurrence the scalar route must match, full the one the
// wavefront must match (they differ only for DTW, whose scalar route
// abandons on a row that is +Inf throughout), and twin the d=1 dependent
// multivariate measure, when there is one.
type kernelCase struct {
	m         measure.Measure
	ref, full func(x, y []float64) float64
	twin      multivariate.Measure
}

// kernelGroups returns every Table-4 grid point of the seven Table-5
// elastic measures, one group per measure, plus a WDTW group at a few
// steepnesses.
func kernelGroups(t testing.TB) [][]kernelCase {
	var groups [][]kernelCase
	for _, g := range []eval.Grid{eval.DTWGrid(), eval.LCSSGrid(), eval.EDRGrid(), eval.ERPGrid(),
		eval.MSMGrid(), eval.TWEGrid(), eval.SwaleGrid()} {
		var cases []kernelCase
		for _, cand := range g.Candidates {
			var c kernelCase
			switch d := cand.(type) {
			case elastic.DTW:
				c = kernelCase{
					ref:  func(x, y []float64) float64 { return refDTW(d.DeltaPercent, x, y, math.Inf(1)) },
					full: func(x, y []float64) float64 { return refDTW(d.DeltaPercent, x, y, math.NaN()) },
					twin: multivariate.DTWDependent{DeltaPercent: d.DeltaPercent},
				}
			case elastic.LCSS:
				c.ref = func(x, y []float64) float64 { return refLCSS(d.DeltaPercent, d.Epsilon, x, y) }
			case elastic.EDR:
				c.ref = func(x, y []float64) float64 { return refEDR(d.Epsilon, x, y) }
			case elastic.ERP:
				c.ref = func(x, y []float64) float64 { return refERP(d.G, x, y) }
				c.twin = multivariate.ERPDependent{G: d.G}
			case elastic.MSM:
				c.ref = func(x, y []float64) float64 { return refMSM(d.C, x, y) }
				c.twin = multivariate.MSMDependent{C: d.C}
			case elastic.TWE:
				c.ref = func(x, y []float64) float64 { return refTWE(d.Lambda, d.Nu, x, y) }
			case elastic.Swale:
				c.ref = func(x, y []float64) float64 { return refSwale(d.Epsilon, d.P, d.R, x, y) }
			default:
				t.Fatalf("grid %s: unexpected candidate %T", g.Name, cand)
			}
			c.m = cand
			if c.full == nil {
				c.full = c.ref
			}
			cases = append(cases, c)
		}
		groups = append(groups, cases)
	}
	var wdtw []kernelCase
	for _, g := range []float64{0, 0.05, 0.25} {
		w := elastic.WDTW{G: g}
		wdtw = append(wdtw, kernelCase{m: w, ref: func(x, y []float64) float64 { return refWDTW(w.G, w.WMax, x, y) }})
	}
	return append(groups, wdtw)
}

// univariate lifts a series to a one-channel multivariate series.
func univariate(x []float64) multivariate.Series {
	s := make(multivariate.Series, len(x))
	for i, v := range x {
		s[i] = []float64{v}
	}
	return s
}

// checkKernel compares every production route of c against its reference
// on one pair, reporting through fail.
func checkKernel(c kernelCase, x, y []float64, fail func(format string, args ...any)) {
	want := c.ref(x, y)
	if got := c.m.Distance(x, y); !same(got, want) {
		fail("%s Distance = %v (%#x), reference %v (%#x)", c.m.Name(), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if d, ok := c.m.(elastic.DTW); ok {
		if got := d.DistanceUpTo(x, y, math.Inf(1)); !same(got, want) {
			fail("%s DistanceUpTo(+Inf) = %v, reference %v", c.m.Name(), got, want)
		}
	}
	if wf, ok := c.m.(wavefronter); ok {
		got, err := wf.DistanceWavefront(context.Background(), x, y)
		if full := c.full(x, y); err != nil || !same(got, full) {
			fail("%s DistanceWavefront = %v (err %v), reference %v", c.m.Name(), got, err, full)
		}
	}
	if c.twin != nil {
		if got := c.twin.Distance(univariate(x), univariate(y)); !same(got, want) {
			fail("%s at d=1 = %v, reference %v", c.twin.Name(), got, want)
		}
	}
}

// kernelInputs returns the named input families of length m: random,
// coarse-grid ties, signed zeros, infinities, NaNs, subnormals and values
// near the overflow edge (whose squares and sums reach +Inf).
func kernelInputs(rng *rand.Rand, m int) map[string][2][]float64 {
	gen := func(f func() float64) [2][]float64 {
		var p [2][]float64
		for k := range p {
			p[k] = make([]float64, m)
			for i := range p[k] {
				p[k][i] = f()
			}
		}
		return p
	}
	pick := func(vs ...float64) func() float64 {
		return func() float64 { return vs[rng.Intn(len(vs))] }
	}
	sprinkle := func(v float64) func() float64 {
		return func() float64 {
			if rng.Intn(6) == 0 {
				return v
			}
			return rng.NormFloat64()
		}
	}
	sub := math.SmallestNonzeroFloat64
	return map[string][2][]float64{
		"random":     gen(rng.NormFloat64),
		"ties":       gen(func() float64 { return float64(rng.Intn(9)-4) / 4 }),
		"signedzero": gen(pick(0, math.Copysign(0, -1), 0.5, -0.5)),
		"inf":        gen(func() float64 { return sprinkle(math.Inf(1 - 2*rng.Intn(2)))() }),
		"nan":        gen(sprinkle(math.NaN())),
		"subnormal":  gen(func() float64 { return float64(rng.Intn(2001)-1000) * sub }),
		"huge":       gen(func() float64 { return 1e300 * rng.NormFloat64() }),
	}
}

// TestKernelsMatchReferenceBitwise runs every Table-4 grid point (and
// WDTW) through every production route at lengths {0, 1, 2, 7, 33, 64},
// the wavefront at block edge 8 so the longer pairs span many blocks.
func TestKernelsMatchReferenceBitwise(t *testing.T) {
	defer elastic.SetWavefrontBlock(8)()
	rng := rand.New(rand.NewSource(15))
	groups := kernelGroups(t)
	for _, m := range []int{0, 1, 2, 7, 33, 64} {
		for draw := 0; draw < 3; draw++ {
			for name, p := range kernelInputs(rng, m) {
				for _, cases := range groups {
					for _, c := range cases {
						checkKernel(c, p[0], p[1], func(format string, args ...any) {
							t.Errorf("m=%d %s #%d: %s", m, name, draw, fmt.Sprintf(format, args...))
						})
					}
				}
			}
		}
	}
}

// fuzzSeries decodes a fuzz payload into two series of the given length,
// the way internal/search's fuzz targets do: an even mode byte reads raw
// little-endian float64 bit patterns (NaN payloads, infinities, signed
// zeros, subnormals), an odd one reads one small value per byte (ties and
// constant series), with 127, 126 and 125 standing for NaN, +Inf and
// -Inf. Values past the end of the payload are 0.
func fuzzSeries(data []byte, length int) (x, y []float64) {
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
	for _, s := range [][]float64{x, y} {
		for i := range s {
			s[i] = next()
		}
	}
	return x, y
}

// FuzzElasticKernels checks, on arbitrary payloads, every production
// route of one grid point per elastic measure (chosen by pick) against
// the plain recurrences, and bitwise symmetry d(x, y) == d(y, x) of the
// seven Table-5 measures (DTW's on its never-abandoning wavefront route).
func FuzzElasticKernels(f *testing.F) {
	f.Add(uint8(7), uint8(3), []byte{1, 8, 16, 24, 127, 0, 8, 126, 200, 16, 8, 125, 4, 4})
	groups := kernelGroups(f)
	f.Fuzz(func(t *testing.T, length, pick uint8, data []byte) {
		defer elastic.SetWavefrontBlock(8)()
		x, y := fuzzSeries(data, int(length)%41)
		for _, cases := range groups {
			c := cases[int(pick)%len(cases)]
			checkKernel(c, x, y, t.Errorf)
			if _, ok := c.m.(elastic.WDTW); ok {
				continue
			}
			a, b := c.m.Distance(x, y), c.m.Distance(y, x)
			if d, ok := c.m.(elastic.DTW); ok {
				// The scalar route abandons a row that is +Inf throughout,
				// so one orientation can stop at +Inf where the transposed
				// one runs on to NaN; they agree after measure.Sanitize.
				// The wavefront never abandons and is bitwise symmetric.
				if !same(measure.Sanitize(a), measure.Sanitize(b)) {
					t.Errorf("%s: sanitized d(x,y) = %v, d(y,x) = %v", c.m.Name(), a, b)
				}
				a, _ = d.DistanceWavefront(context.Background(), x, y)
				b, _ = d.DistanceWavefront(context.Background(), y, x)
			}
			if !same(a, b) {
				t.Errorf("%s: d(x,y) = %v, d(y,x) = %v", c.m.Name(), a, b)
			}
		}
	})
}
