package multivariate

// Dependent generalizations of the elastic measures: one warping path over
// vector-valued points. The DPs run over the m-by-n cost matrix — the two
// series may differ in length, exactly as in the univariate definitions —
// with the rolling two-row layout borrowed from the internal/elastic row
// pool, so warm calls are allocation-free. Point costs reduce to the
// univariate costs at one channel (squared difference for DTW, absolute
// difference for ERP and MSM), and every recurrence replicates its
// univariate counterpart's additions in the same order (builtin min, exactly
// associative, carries the left neighbor the same way), so at d=1 the
// dependent measures are bitwise identical to internal/elastic — the oracle
// harness and internal/elastic's kernel tests pin this.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/elastic"
)

// ctxCheckRows is how many DP rows run between cooperative cancellation
// checks on the DistanceCtx routes.
const ctxCheckRows = 64

// bandWidth converts a Sakoe-Chiba window percentage into an absolute band
// half-width for an m-by-n DP: the univariate convention applied to the
// longer series, widened to |m-n| so the (m, n) corner stays reachable.
// At m == n it reduces exactly to the univariate window.
func bandWidth(deltaPercent, m, n int) int {
	longest := m
	if n > longest {
		longest = n
	}
	w := longest
	if deltaPercent < 100 {
		w = deltaPercent * longest / 100
		if w < 1 {
			w = 1
		}
	}
	diff := m - n
	if diff < 0 {
		diff = -diff
	}
	if w < diff {
		w = diff
	}
	return w
}

// sqDist is the squared Euclidean distance between two d-dimensional
// points; at d=1 it performs exactly the univariate (x-y)^2.
func sqDist(a, b []float64) float64 {
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// l1Dist is the L1 distance between two d-dimensional points; at d=1 it is
// exactly math.Abs(x-y).
func l1Dist(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += math.Abs(a[k] - b[k])
	}
	return s
}

// DTWDependent is multivariate DTW with a single warping path over
// vector-valued points (DTW-D): the point cost is the squared Euclidean
// distance between the two d-dimensional samples. DeltaPercent is the
// Sakoe-Chiba band, as in the univariate DTW. Unequal-length pairs run the
// m-by-n banded DP; when exactly one series is empty the distance is +Inf
// (no alignment exists), and two empty series are at distance 0.
type DTWDependent struct {
	DeltaPercent int
}

// Name implements Measure.
func (d DTWDependent) Name() string { return fmt.Sprintf("mv-dtw-d[d=%d]", d.DeltaPercent) }

// Symmetric reports bitwise symmetry: the transposed DP combines the same
// operands with the same operations (comparisons carry no rounding).
func (d DTWDependent) Symmetric() bool { return true }

// Distance implements Measure.
func (d DTWDependent) Distance(x, y Series) float64 {
	return d.distance(nil, x, y, math.Inf(1))
}

// DistanceUpTo implements EarlyAbandoning with the univariate DTW
// contract: banded DP abandoned once an entire row reaches cutoff, the row
// minimum being a certified lower bound.
func (d DTWDependent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	return d.distance(nil, x, y, cutoff)
}

// DistanceCtx implements ContextMeasure, checking ctx every ctxCheckRows
// DP rows.
func (d DTWDependent) DistanceCtx(ctx context.Context, x, y Series) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return d.distanceErr(ctx, x, y, math.Inf(1))
}

func (d DTWDependent) distance(ctx context.Context, x, y Series, cutoff float64) float64 {
	v, _ := d.distanceErr(ctx, x, y, cutoff)
	return v
}

func (d DTWDependent) distanceErr(ctx context.Context, x, y Series, cutoff float64) (float64, error) {
	checkChannels(x, y)
	m, n := len(x), len(y)
	if m == 0 && n == 0 {
		return 0, nil
	}
	if m == 0 || n == 0 {
		return math.Inf(1), nil
	}
	w := bandWidth(d.DeltaPercent, m, n)
	inf := math.Inf(1)
	s, prev, cur := elastic.BorrowRows(n + 1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		if ctx != nil && i%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				s.Release(prev, cur)
				return 0, err
			}
		}
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		// The band advances by at most one cell per row, so only its fringe
		// needs re-initializing (the univariate fringe-clearing pattern).
		cur[lo-1] = inf
		if hi < n {
			cur[hi+1] = inf
		}
		rowMin := inf
		xi := x[i-1]
		left := inf // cur[j-1], carried in a register
		for j := lo; j <= hi; j++ {
			c := sqDist(xi, y[j-1])
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if left < best {
				best = left // deletion
			}
			left = c + best
			cur[j] = left
			if left < rowMin {
				rowMin = left
			}
		}
		if rowMin >= cutoff {
			s.Release(prev, cur)
			return rowMin, nil
		}
		prev, cur = cur, prev
	}
	res := prev[n]
	s.Release(prev, cur)
	return res, nil
}

// ERPDependent is multivariate ERP with vector-valued points: gaps are
// penalized by the L1 distance of the point to the constant gap value G on
// every channel, matches by the L1 point distance. The DP is the full
// m-by-n ERP matrix; deleting an entire series against an empty one costs
// its cumulative gap penalty, so unequal lengths — including one empty
// side — are well defined.
type ERPDependent struct {
	G float64
}

// Name implements Measure.
func (e ERPDependent) Name() string { return "mv-erp-d" }

// Symmetric reports bitwise symmetry (as for DTW, the transposed
// recurrence combines the same operands).
func (e ERPDependent) Symmetric() bool { return true }

// gapCost is the L1 penalty for aligning point p against the gap value; at
// d=1 it is exactly math.Abs(p-G).
func (e ERPDependent) gapCost(p []float64) float64 {
	var s float64
	for k := range p {
		s += math.Abs(p[k] - e.G)
	}
	return s
}

// Distance implements Measure.
func (e ERPDependent) Distance(x, y Series) float64 {
	v, _ := e.distanceErr(nil, x, y)
	return v
}

// DistanceCtx implements ContextMeasure.
func (e ERPDependent) DistanceCtx(ctx context.Context, x, y Series) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.distanceErr(ctx, x, y)
}

func (e ERPDependent) distanceErr(ctx context.Context, x, y Series) (float64, error) {
	checkChannels(x, y)
	m, n := len(x), len(y)
	s, prev, cur := elastic.BorrowRows(n + 1)
	prev[0] = 0
	for j := 1; j <= n; j++ {
		prev[j] = prev[j-1] + e.gapCost(y[j-1])
	}
	for i := 1; i <= m; i++ {
		if ctx != nil && i%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				s.Release(prev, cur)
				return 0, err
			}
		}
		xi := x[i-1]
		gx := e.gapCost(xi)
		left := prev[0] + gx
		cur[0] = left
		for j := 1; j <= n; j++ {
			yj := y[j-1]
			match := prev[j-1] + l1Dist(xi, yj)
			gapX := prev[j] + gx
			left = min(min(match, gapX), left+e.gapCost(yj)) // gapY on the carried chain
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[n]
	s.Release(prev, cur)
	return res, nil
}

// MSMDependent is multivariate Move-Split-Merge with vector-valued points:
// the move cost is the L1 point distance and the split/merge cost is C
// when the new point lies componentwise between its two anchors, otherwise
// C plus the L1 distance to the nearer anchor — both reduce exactly to the
// univariate MSM costs at one channel. Two empty series are at distance 0;
// exactly one empty side is +Inf (MSM defines no gap operation).
type MSMDependent struct {
	C float64
}

// Name implements Measure.
func (m MSMDependent) Name() string { return fmt.Sprintf("mv-msm-d[c=%g]", m.C) }

// Symmetric reports bitwise symmetry: under x<->y the split and merge
// roles swap and the cost is symmetric in its anchor points.
func (m MSMDependent) Symmetric() bool { return true }

// msmCost is the vector split/merge cost C(new, a, b).
func (m MSMDependent) msmCost(p, a, b []float64) float64 {
	between := true
	var dpa, dpb float64
	for k := range p {
		if !((a[k] <= p[k] && p[k] <= b[k]) || (b[k] <= p[k] && p[k] <= a[k])) {
			between = false
		}
		dpa += math.Abs(p[k] - a[k])
		dpb += math.Abs(p[k] - b[k])
	}
	if between {
		return m.C
	}
	return m.C + min(dpa, dpb)
}

// Distance implements Measure.
func (m MSMDependent) Distance(x, y Series) float64 {
	v, _ := m.distanceErr(nil, x, y)
	return v
}

// DistanceCtx implements ContextMeasure.
func (m MSMDependent) DistanceCtx(ctx context.Context, x, y Series) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return m.distanceErr(ctx, x, y)
}

func (m MSMDependent) distanceErr(ctx context.Context, x, y Series) (float64, error) {
	checkChannels(x, y)
	mm, n := len(x), len(y)
	if mm == 0 && n == 0 {
		return 0, nil
	}
	if mm == 0 || n == 0 {
		return math.Inf(1), nil
	}
	s, prev, cur := elastic.BorrowRows(n)
	prev[0] = l1Dist(x[0], y[0])
	for j := 1; j < n; j++ {
		prev[j] = prev[j-1] + m.msmCost(y[j], x[0], y[j-1])
	}
	for i := 1; i < mm; i++ {
		if ctx != nil && i%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				s.Release(prev, cur)
				return 0, err
			}
		}
		xi, xim := x[i], x[i-1]
		left := prev[0] + m.msmCost(xi, xim, y[0])
		cur[0] = left
		for j := 1; j < n; j++ {
			yj := y[j]
			move := prev[j-1] + l1Dist(xi, yj)
			split := prev[j] + m.msmCost(xi, xim, yj)
			left = min(min(move, split), left+m.msmCost(yj, xi, y[j-1])) // merge on the carried chain
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	res := prev[n-1]
	s.Release(prev, cur)
	return res, nil
}
