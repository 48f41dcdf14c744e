// Package elastic implements the 7 elastic distance measures of Section 7
// of the paper: DTW with the Sakoe-Chiba band, LCSS, EDR, ERP, MSM, TWE,
// and Swale. Elastic measures create a non-linear mapping between series by
// dynamic programming over the m-by-m cost matrix, allowing regions to
// stretch or shrink; all run in O(m^2) time (O(w*m) with a band) and O(m)
// memory via two-row DP. The package also provides the LB_Keogh lower
// bound used by the DTW pruning ablation.
package elastic

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/measure"
)

// Kernel rule, shared by the scalar DPs here and in bounds.go and
// extensions.go, the wavefront kernels (wavefront.go) and the dependent
// multivariate twins: cells combine with builtin min/max, which follow
// math.Min/Max's NaN and signed-zero rules but compile inline. Builtin min
// and max are exactly commutative and associative (up to which NaN payload
// propagates), so a cell may regroup them — left = min(min(diag, up),
// left+cost) keeps a single min on the loop-carried chain, with the left
// neighbor held in a local instead of re-read from cur[j-1] — but additions
// are never reassociated, so every distance is bitwise what the plain
// recurrence computes. DTW and WDTW keep their `<` compare chains, which
// skip a NaN insertion or deletion neighbor instead of propagating it (the
// semantics the oracle's refDTW/refWDTW pin). EDR's cells are small
// non-negative integers, never NaN or -0, so builtin min serves it too.

// RowScratch pools the two DP rows shared by the scalar elastic
// recurrences (LCSS, EDR, ERP, MSM, TWE, Swale), so warm Distance calls
// are allocation-free like DTW's dtwPool path. Contents are unspecified on
// Get; every recurrence fully initializes the cells it reads. The type is
// exported through BorrowRows/Release so other DP layers (the multivariate
// dependent recurrences) share the same pool instead of growing their own.
type RowScratch struct{ prev, cur []float64 }

var rowPool = sync.Pool{New: func() any { return new(RowScratch) }}

// BorrowRows returns a pooled scratch holder and its two rows resized to
// n. The rows arrive dirty; callers must initialize every cell they read
// and hand the (possibly swapped) rows back via Release.
func BorrowRows(n int) (*RowScratch, []float64, []float64) {
	s := rowPool.Get().(*RowScratch)
	if cap(s.prev) < n {
		s.prev = make([]float64, n)
		s.cur = make([]float64, n)
	}
	return s, s.prev[:n], s.cur[:n]
}

// Release returns the rows to the pool. Two-row DPs swap prev and cur as
// they advance, so the final slices are passed back rather than assumed.
func (s *RowScratch) Release(prev, cur []float64) {
	s.prev, s.cur = prev, cur
	rowPool.Put(s)
}

// getRows and release are the package-internal spellings, kept so the
// recurrences in this file read unchanged.
func getRows(n int) (*RowScratch, []float64, []float64) { return BorrowRows(n) }

func (s *RowScratch) release(prev, cur []float64) { s.Release(prev, cur) }

// windowSize converts a Sakoe-Chiba window expressed as a percentage of the
// series length (the paper's convention: delta = 10 means 10% of m;
// delta >= 100 means an unconstrained band) into an absolute band width.
func windowSize(deltaPercent int, m int) int {
	if deltaPercent >= 100 {
		return m
	}
	w := deltaPercent * m / 100
	if w < 1 {
		w = 1
	}
	return w
}

// DTW is Dynamic Time Warping with a Sakoe-Chiba band. DeltaPercent is the
// band half-width as a percentage of the series length (Table 4's grid);
// 100 disables the constraint. The point cost is the squared difference and
// the accumulated value is returned without a final square root, following
// the UCR-suite convention (1-NN ordering is unaffected).
type DTW struct {
	DeltaPercent int
}

// Name implements measure.Measure.
func (d DTW) Name() string { return fmt.Sprintf("dtw[d=%d]", d.DeltaPercent) }

// Symmetric implements measure.Symmetric: the transposed DP combines the
// same operands with the same operations, so DTW(x, y) == DTW(y, x)
// bitwise.
func (d DTW) Symmetric() bool { return true }

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical, see
// DistanceWavefront); everything else takes the scalar two-row DP.
func (d DTW) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := d.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	return d.DistanceUpTo(x, y, math.Inf(1))
}

// LBKeogh returns the LB_Keogh lower bound of DTW(x, y) for a band of
// absolute half-width w: the squared exceedance of x outside the upper and
// lower envelopes of y. It never exceeds the corresponding DTW value. The
// envelope is built in O(m) with Lemire's streaming min/max; callers that
// evaluate many bounds against the same series should precompute an
// Envelope (or use the search engine, which does) instead of rebuilding it
// per call.
func LBKeogh(x, y []float64, w int) float64 {
	measure.CheckSameLength(x, y)
	return NewEnvelope(y, w).LBKeogh(x)
}

// LCSS is the Longest Common Subsequence distance: points match when they
// differ by at most Epsilon and their indexes by at most the band; the
// distance is 1 - L/min(m, n) where L is the longest common subsequence.
type LCSS struct {
	DeltaPercent int     // band as a percentage of the length (Table 4: {5, 10})
	Epsilon      float64 // matching threshold
}

// Name implements measure.Measure.
func (l LCSS) Name() string { return fmt.Sprintf("lcss[d=%d,e=%g]", l.DeltaPercent, l.Epsilon) }

// Symmetric implements measure.Symmetric.
func (l LCSS) Symmetric() bool { return true }

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical).
func (l LCSS) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := l.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0
	}
	w := windowSize(l.DeltaPercent, m)
	s, prev, cur := getRows(m + 1)
	// Row 0 of the DP is all zeros; pooled rows arrive dirty, so clear it
	// (the in-band loop plus fringe clearing covers every later read).
	for j := range prev {
		prev[j] = 0
	}
	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > m {
			hi = m
		}
		// Out-of-band cells count as zero matches. The band only ever
		// advances by one cell per row, so clearing its fringe — cur[lo-1]
		// (read as the deletion predecessor) and cur[hi+1] (read as the
		// next row's insertion predecessor) — replaces the former
		// full-row wipe that made banded LCSS O(m^2) regardless of band.
		cur[lo-1] = 0
		if hi < m {
			cur[hi+1] = 0
		}
		xi := x[i-1]
		left := 0.0 // cur[j-1], carried in a register
		for j := lo; j <= hi; j++ {
			if math.Abs(xi-y[j-1]) <= l.Epsilon {
				left = prev[j-1] + 1
			} else {
				left = max(prev[j], left)
			}
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := 1 - prev[m]/float64(m)
	s.release(prev, cur)
	return res
}

// EDR is the Edit Distance on Real sequence: a unit-cost edit distance
// where two points match (cost 0) when they differ by at most Epsilon, and
// every gap or mismatch costs 1. The raw edit count is returned (series are
// equal-length after preprocessing, so normalization is a constant factor).
type EDR struct {
	Epsilon float64
}

// Name implements measure.Measure.
func (e EDR) Name() string { return fmt.Sprintf("edr[e=%g]", e.Epsilon) }

// Symmetric implements measure.Symmetric.
func (e EDR) Symmetric() bool { return true }

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical).
func (e EDR) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := e.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	measure.CheckSameLength(x, y)
	m := len(x)
	s, prev, cur := getRows(m + 1)
	for j := 0; j <= m; j++ {
		prev[j] = float64(j)
	}
	for i := 1; i <= m; i++ {
		xi := x[i-1]
		left := float64(i)
		cur[0] = left
		for j := 1; j <= m; j++ {
			subCost := 1.0
			if math.Abs(xi-y[j-1]) <= e.Epsilon {
				subCost = 0
			}
			left = min(min(prev[j-1]+subCost, prev[j]+1), left+1)
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[m]
	s.release(prev, cur)
	return res
}

// ERP is the Edit distance with Real Penalty: gaps are penalized by the
// distance to a constant gap value g (0 here, the standard choice for
// z-normalized data), which makes ERP a metric and, with g fixed,
// parameter-free — the only such elastic measure in Table 5.
type ERP struct {
	G float64
}

// Name implements measure.Measure.
func (e ERP) Name() string { return "erp" }

// Symmetric implements measure.Symmetric.
func (e ERP) Symmetric() bool { return true }

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical).
func (e ERP) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := e.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	measure.CheckSameLength(x, y)
	m := len(x)
	s, prev, cur := getRows(m + 1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] + math.Abs(y[j-1]-e.G)
	}
	for i := 1; i <= m; i++ {
		xi := x[i-1]
		gx := math.Abs(xi - e.G)
		left := prev[0] + gx
		cur[0] = left
		for j := 1; j <= m; j++ {
			yj := y[j-1]
			match := prev[j-1] + math.Abs(xi-yj)
			gapX := prev[j] + gx
			left = min(min(match, gapX), left+math.Abs(yj-e.G)) // gapY on the carried chain
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[m]
	s.release(prev, cur)
	return res
}

// MSM is the Move-Split-Merge distance (Stefan, Athitsos, Das 2013): an
// edit-style measure built from move (substitute), split, and merge
// operations, each costing C. Unlike DTW, LCSS, and EDR, MSM is a metric.
type MSM struct {
	C float64 // cost of a split or merge operation (Table 4's grid)
}

// Name implements measure.Measure.
func (m MSM) Name() string { return fmt.Sprintf("msm[c=%g]", m.C) }

// Symmetric implements measure.Symmetric: under x<->y the split and merge
// roles swap and msmCost is symmetric in its interval endpoints.
func (m MSM) Symmetric() bool { return true }

// msmCost is the split/merge cost C(new, a, b): c when new lies between a
// and b, otherwise c plus the distance to the nearer endpoint.
func (m MSM) msmCost(newPoint, a, b float64) float64 {
	if (a <= newPoint && newPoint <= b) || (b <= newPoint && newPoint <= a) {
		return m.C
	}
	return m.C + min(math.Abs(newPoint-a), math.Abs(newPoint-b))
}

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical).
func (m MSM) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := m.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	measure.CheckSameLength(x, y)
	n := len(x)
	if n == 0 {
		return 0
	}
	s, prev, cur := getRows(n)
	prev[0] = math.Abs(x[0] - y[0])
	for j := 1; j < n; j++ {
		prev[j] = prev[j-1] + m.msmCost(y[j], x[0], y[j-1])
	}
	for i := 1; i < n; i++ {
		xi, xim := x[i], x[i-1]
		left := prev[0] + m.msmCost(xi, xim, y[0])
		cur[0] = left
		for j := 1; j < n; j++ {
			yj := y[j]
			move := prev[j-1] + math.Abs(xi-yj)
			split := prev[j] + m.msmCost(xi, xim, yj)
			left = min(min(move, split), left+m.msmCost(yj, xi, y[j-1])) // merge on the carried chain
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[n-1]
	s.release(prev, cur)
	return res
}

// TWE is the Time Warp Edit distance (Marteau 2009): an elastic metric
// combining LCSS-style editing with DTW-style warping, controlled by a
// stiffness parameter Nu (penalizing warping against the time axis) and a
// constant edit penalty Lambda.
type TWE struct {
	Lambda float64 // edit penalty
	Nu     float64 // stiffness
}

// Name implements measure.Measure.
func (t TWE) Name() string { return fmt.Sprintf("twe[l=%g,n=%g]", t.Lambda, t.Nu) }

// Symmetric implements measure.Symmetric.
func (t TWE) Symmetric() bool { return true }

// Distance implements measure.Measure. Long series on multi-core machines
// route through the blocked wavefront engine (bitwise-identical).
func (t TWE) Distance(x, y []float64) float64 {
	if wavefrontEligible(len(x)) {
		if v, err := t.DistanceWavefront(context.Background(), x, y); err == nil {
			return v
		}
	}
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0
	}
	// The reference treatment pads both series with a leading zero sample at
	// time 0; the pad is realized by index arithmetic (xi/xim, yj/yjm below)
	// instead of copies, so warm calls stay allocation-free.
	inf := math.Inf(1)
	s, prev, cur := getRows(m + 1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		left := inf // only column 0 is read before being written
		cur[0] = left
		xi := x[i-1] // xp[i]
		xim := 0.0   // xp[i-1]: the pad sample when i == 1
		if i > 1 {
			xim = x[i-2]
		}
		axd := math.Abs(xi - xim)
		for j := 1; j <= m; j++ {
			yj := y[j-1]
			yjm := 0.0
			if j > 1 {
				yjm = y[j-2]
			}
			// Delete in x: advance i only.
			delA := prev[j] + axd + t.Nu + t.Lambda
			// Match: advance both, with stiffness on the time difference.
			match := prev[j-1] + math.Abs(xi-yj) + math.Abs(xim-yjm) +
				2*t.Nu*math.Abs(float64(i-j))
			// Delete in y (advance j only) rides the carried chain.
			left = min(min(match, delA), left+math.Abs(yj-yjm)+t.Nu+t.Lambda)
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[m]
	s.release(prev, cur)
	return res
}

// Swale is the Sequence Weighted Alignment model (Morse & Patel 2007): a
// similarity model rewarding matches (within Epsilon) by R and penalizing
// gaps by P. The similarity is negated into a dissimilarity for 1-NN use.
type Swale struct {
	Epsilon float64 // match threshold
	P       float64 // gap penalty (subtracted per gap)
	R       float64 // match reward
}

// Name implements measure.Measure.
func (s Swale) Name() string { return fmt.Sprintf("swale[e=%g,p=%g,r=%g]", s.Epsilon, s.P, s.R) }

// Symmetric implements measure.Symmetric.
func (s Swale) Symmetric() bool { return true }

// Distance implements measure.Measure.
func (s Swale) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	m := len(x)
	sc, prev, cur := getRows(m + 1)
	for j := 0; j <= m; j++ {
		prev[j] = -s.P * float64(j)
	}
	for i := 1; i <= m; i++ {
		xi := x[i-1]
		left := -s.P * float64(i)
		cur[0] = left
		for j := 1; j <= m; j++ {
			if math.Abs(xi-y[j-1]) <= s.Epsilon {
				left = prev[j-1] + s.R
			} else {
				left = max(prev[j], left) - s.P
			}
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := -prev[m]
	sc.release(prev, cur)
	return res
}

// All returns one representative instance of each of the 7 elastic
// measures, using the paper's unsupervised parameter choices (Table 5);
// supervised grids live in the eval package's parameter registry.
func All() []measure.Measure {
	return []measure.Measure{
		MSM{C: 0.5},
		TWE{Lambda: 1, Nu: 0.0001},
		DTW{DeltaPercent: 10},
		EDR{Epsilon: 0.1},
		Swale{Epsilon: 0.2, P: 5, R: 1},
		ERP{G: 0},
		LCSS{DeltaPercent: 5, Epsilon: 0.2},
	}
}
