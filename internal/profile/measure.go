// Package profile computes matrix profiles — all-pairs subsequence joins —
// by a SCAMP-style tile walk over the diagonals of the join matrix
// (Zimmerman et al., SoCC 2019): each tile seeds its diagonals exactly and
// advances them at O(1) per cell, O(n^2) in all. A self-join walks only
// diagonals outside the trivial-match zone (radius w/2) and credits each
// cell to both windows; an AB-join (query against target) walks all cells.
// As in Akbarinia & Villar ("Efficient Matrix Profile Computation Using
// Different Distance Functions"), the measure is pluggable: z-normalized
// Euclidean (compared as correlation), Euclidean and p-norms, each with a
// kernel per tile row, never a dispatch per cell.
package profile

import (
	"fmt"
	"math"
)

// Measure is the distance of the matrix-profile engine; only the
// constructors below provide one. Every kernel maximizes a score (the
// correlation, minus half the squared Euclidean distance, minus the p-norm
// power sum), and each row's best score becomes a distance once, at the
// end of the join.
type Measure interface {
	Name() string
	// fill computes the per-window tables of x at window w.
	fill(t *tables, x []float64, w int)
	// seed computes the cross term of windows a_i and b_j directly.
	seed(a, b *tables, i, j, w int) float64
	// scan advances and scores one tile row; see rowScan.
	scan(s *rowScan)
	// distance maps a row's best score to its distance.
	distance(score float64, w int) float64
}

// tables holds one series' per-window quantities at a fixed window, all
// from x, the series with non-finite samples replaced by 0 so the streams
// stay finite. df and dg are SCAMP's update terms for the step from window
// i-1 to i (index 0 holds 0), with which the centred cross term advances
// along a diagonal as
//
//	cov(i, j) = cov(i-1, j-1) + df_a[i]·dg_b[j] + dg_a[i]·df_b[j].
//
// u is the measure's per-window score term, NaN for windows that held a
// non-finite sample: every score such a window touches is then NaN, and
// NaN never wins a comparison, so masked windows are never claimed.
type tables struct {
	x, mean, df, dg, u []float64
	meanSq             []float64 // Σx²/w, for the constancy test
}

// moments fills the tables with u holding the centred norm Σ(x-mean)², by
// direct two-pass sums per window: bitwise-equal windows get bitwise-equal
// tables, and no running-sum drift reaches the constancy test.
func (t *tables) moments(x []float64, w int) {
	n, wins := len(x), len(x)-w+1
	t.x, t.u = resize(t.x, n), resize(t.u, wins)
	t.mean, t.meanSq = resize(t.mean, wins), resize(t.meanSq, wins)
	t.df, t.dg = resize(t.df, wins), resize(t.dg, wins)
	lastBad := -1
	for k, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, lastBad = 0, k
		}
		t.x[k] = v
		if i := k - w + 1; i >= 0 {
			t.u[i] = 0 // the mask term: NaN when window i held a bad sample
			if lastBad >= i {
				t.u[i] = math.NaN()
			}
		}
	}
	fw := float64(w)
	for i := range t.u {
		var sum float64
		for _, v := range t.x[i : i+w] {
			sum += v
		}
		mean := sum / fw
		var c, sq float64
		for _, v := range t.x[i : i+w] {
			c += (v - mean) * (v - mean)
			sq += v * v
		}
		t.mean[i], t.meanSq[i] = mean, sq/fw
		t.u[i] += c
	}
	t.df[0], t.dg[0] = 0, 0
	for i := 1; i < wins; i++ {
		add, drop := t.x[i+w-1], t.x[i-1]
		t.df[i] = (add - drop) / 2
		t.dg[i] = (add - t.mean[i]) + (drop - t.mean[i-1])
	}
}

// centred provides the direct seed of the measures that stream the
// centred cross term: Σ(a-mean_a)(b-mean_b), with four accumulators.
type centred struct{}

func (centred) seed(a, b *tables, i, j, w int) float64 {
	x, y := a.x[i:i+w:i+w], b.x[j:j+w:j+w]
	ma, mb := a.mean[i], b.mean[j]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		s0 += (x[0] - ma) * (y[0] - mb)
		s1 += (x[1] - ma) * (y[1] - mb)
		s2 += (x[2] - ma) * (y[2] - mb)
		s3 += (x[3] - ma) * (y[3] - mb)
		x, y = x[4:], y[4:]
	}
	for k := range x {
		s0 += (x[k] - ma) * (y[k] - mb)
	}
	return (s0 + s1) + (s2 + s3)
}

// rowScan is one tile row for a kernel: row i against columns j0, j0+1, …
// with cross terms cov, of which [0, from) were just seeded and the rest
// advance from their diagonal predecessors. The kernel raises rmax/rarg
// to the row's best (score, column) and, for self-joins (colBest non-nil),
// colBest[t]/colIdx[t] to column t's best (score, row). Only a strictly
// greater score wins, so ties keep the lowest index.
type rowScan struct {
	a, b           *tables
	w, i, j0, from int
	cov, colBest   []float64
	colIdx         []int
	rmax           float64
	rarg           int
}

// score folds cell t's score into the row and column maxima (the colder
// kernels' form; the z-normalized kernel fuses it).
func (s *rowScan) score(t int, r float64) {
	if r > s.rmax {
		s.rmax, s.rarg = r, s.j0+t
	}
	if s.colBest != nil && r > s.colBest[t] {
		s.colBest[t], s.colIdx[t] = r, s.i
	}
}

type zNormEuclidean struct{ centred }

// ZNormEuclidean returns the classic matrix-profile measure: z-normalized
// Euclidean distance. Cells compare by Pearson correlation cov·inv_i·inv_j
// (inv the inverse centred norm), and each row's best becomes a distance
// through the MASS identity sqrt(2w(1-corr)). Zero-variance windows have
// inv = 0, so their correlation is 0 and their distance the sqrt(2w)
// ceiling (the subsequence-layer convention).
func ZNormEuclidean() Measure { return zNormEuclidean{} }

func (zNormEuclidean) Name() string { return "znorm-euclidean" }

func (zNormEuclidean) fill(t *tables, x []float64, w int) {
	t.moments(x, w)
	for i, c := range t.u {
		t.u[i] = 1 / math.Sqrt(c) // a masked window's NaN stays NaN
		if isConstantVar(c/float64(w), t.meanSq[i]) {
			t.u[i] = 0
		}
	}
}

func (zNormEuclidean) scan(s *rowScan) {
	a, b, i, n := s.a, s.b, s.i, len(s.cov)
	dg, df, u := b.dg[s.j0:s.j0+n], b.df[s.j0:s.j0+n], b.u[s.j0:s.j0+n]
	// Seeded cells ride the same loop with zero update terms, which leave
	// a finite cross term bitwise unchanged.
	s.rmax, s.rarg = znRow(s, 0, s.from, dg, df, u, 0, 0, a.u[i])
	s.rmax, s.rarg = znRow(s, s.from, n, dg, df, u, a.df[i], a.dg[i], a.u[i])
}

// znRow is the z-normalized kernel over cells [lo, hi) of a row.
func znRow(s *rowScan, lo, hi int, dg, df, u []float64, dfi, dgi, ui float64) (float64, int) {
	rmax, rarg := s.rmax, s.rarg
	cov := s.cov[lo:hi]
	n := len(cov)
	dg, df, u = dg[lo:lo+n], df[lo:lo+n], u[lo:lo+n]
	j0 := s.j0 + lo
	if s.colBest == nil {
		for t := range cov {
			c := cov[t] + dfi*dg[t] + dgi*df[t]
			cov[t] = c
			if r := c * ui * u[t]; r > rmax {
				rmax, rarg = r, j0+t
			}
		}
		return rmax, rarg
	}
	cb, ci := s.colBest[lo:lo+n], s.colIdx[lo:lo+n]
	i := s.i
	for t := range cov {
		c := cov[t] + dfi*dg[t] + dgi*df[t]
		cov[t] = c
		r := c * ui * u[t]
		if r > rmax {
			rmax, rarg = r, j0+t
		}
		if r > cb[t] {
			cb[t], ci[t] = r, i
		}
	}
	return rmax, rarg
}

func (zNormEuclidean) distance(score float64, w int) float64 {
	return math.Sqrt(2 * float64(w) * (1 - max(-1, min(1, score))))
}

type euclidean struct{ centred }

// Euclidean returns the non-normalized Euclidean profile measure (Akbarinia
// & Villar's first generalization). It streams the centred cross term and
// scores a cell by minus half its squared distance,
// cov - cn_i/2 - cn_j/2 - (w/2)(mean_i - mean_j)² with cn the centred
// norm, which avoids the cancellation of ||a||² + ||b||² - 2·dot on series
// with a large offset.
func Euclidean() Measure { return euclidean{} }

func (euclidean) Name() string { return "euclidean" }

func (euclidean) fill(t *tables, x []float64, w int) {
	t.moments(x, w)
	for i := range t.u {
		t.u[i] /= 2
	}
}

func (euclidean) scan(s *rowScan) {
	a, b, i, n := s.a, s.b, s.i, len(s.cov)
	dg, df, h, mean := b.dg[s.j0:s.j0+n], b.df[s.j0:s.j0+n], b.u[s.j0:s.j0+n], b.mean[s.j0:s.j0+n]
	hw, hi, mi := float64(s.w)/2, a.u[i], a.mean[i]
	dfi, dgi := 0.0, 0.0 // seeded cells take zero update terms
	for t := range s.cov {
		if t == s.from {
			dfi, dgi = a.df[i], a.dg[i]
		}
		c := s.cov[t] + dfi*dg[t] + dgi*df[t]
		s.cov[t] = c
		dm := mi - mean[t]
		s.score(t, c-hi-h[t]-hw*dm*dm)
	}
}

func (euclidean) distance(score float64, w int) float64 { return math.Sqrt(max(0, -2*score)) }

type pNorm struct{ p float64 }

// PNorm returns the order-p Minkowski profile measure over raw windows,
// streamed through the |a-b|^p power sums directly (the Akbarinia &
// Villar p-norm recurrence): shifting both windows one step drops the
// leading term and adds the trailing one.
func PNorm(p float64) Measure {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		panic(fmt.Sprintf("profile: p-norm order %v out of range", p))
	}
	return pNorm{p: p}
}

func (m pNorm) Name() string { return fmt.Sprintf("pnorm-%g", m.p) }

func (m pNorm) pow(d float64) float64 {
	switch m.p {
	case 1:
		return math.Abs(d)
	case 2:
		return d * d
	case 3:
		a := math.Abs(d)
		return a * a * a
	default:
		return math.Pow(math.Abs(d), m.p)
	}
}

func (pNorm) fill(t *tables, x []float64, w int) {
	t.moments(x, w)
	for i, c := range t.u {
		if !math.IsNaN(c) {
			t.u[i] = 0 // keep only the mask
		}
	}
}

func (m pNorm) seed(a, b *tables, i, j, w int) float64 {
	var s float64
	for k, v := range a.x[i : i+w] {
		s += m.pow(v - b.x[j+k])
	}
	return s
}

func (m pNorm) scan(s *rowScan) {
	a, b, i, w := s.a, s.b, s.i, s.w
	if s.from < len(s.cov) {
		// Cell (i, j) drops the pair (i-1, j-1) and adds (i+w-1, j+w-1);
		// bx starts at the first streamed cell's dropped sample.
		add, drop := a.x[i+w-1], a.x[i-1]
		bx := b.x[s.j0+s.from-1:]
		for k, c := range s.cov[s.from:] {
			s.cov[s.from+k] = c + m.pow(add-bx[k+w]) - m.pow(drop-bx[k])
		}
	}
	v := b.u[s.j0 : s.j0+len(s.cov)]
	for t, c := range s.cov {
		s.score(t, a.u[i]+v[t]-c)
	}
}

// distance takes the p-th root of the best power sum, with small negative
// sums (streaming cancellation noise) clamped to zero.
func (m pNorm) distance(score float64, w int) float64 {
	s := max(0, -score)
	switch m.p {
	case 1:
		return s
	case 2:
		return math.Sqrt(s)
	case 3:
		return math.Cbrt(s)
	default:
		return math.Pow(s, 1/m.p)
	}
}

// isConstantVar reports whether a window variance is zero up to rounding
// noise, relative to the window's mean square (the subsequence-layer
// convention).
func isConstantVar(variance, meanSq float64) bool {
	return variance <= 1e-12*(meanSq+1)
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
