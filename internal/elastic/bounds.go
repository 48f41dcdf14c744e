package elastic

import (
	"math"
	"sync"

	"repro/internal/measure"
)

// This file implements the UCR-suite-style pruning machinery for DTW: a
// pooled two-row DP with per-row early abandoning (measure.EarlyAbandoning)
// and a cascading lower bound — O(1) LB_Kim, then O(m) LB_Keogh against a
// precomputed Lemire envelope, then the reversed LB_Keogh — exposed through
// measure.LowerBounded. The search engine (internal/search) drives the
// cascade; everything here is also usable standalone.

// dtwScratch is the reusable two-row DP state. A sync.Pool keeps steady
// state allocation-free without threading buffers through the Measure
// interface.
type dtwScratch struct {
	prev, cur []float64
}

var dtwPool = sync.Pool{New: func() any { return new(dtwScratch) }}

// DistanceUpTo implements measure.EarlyAbandoning: banded DTW that stops
// as soon as an entire DP row reaches cutoff. Every warping path crosses
// every row and cell costs are non-negative, so the minimum of a row lower
// bounds the final distance; when it reaches cutoff the computation is
// abandoned and that row minimum (a certified lower bound >= cutoff) is
// returned. With cutoff = +Inf this is exactly Distance.
func (d DTW) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0
	}
	w := windowSize(d.DeltaPercent, m)
	inf := math.Inf(1)

	s := dtwPool.Get().(*dtwScratch)
	if cap(s.prev) < m+1 {
		s.prev = make([]float64, m+1)
		s.cur = make([]float64, m+1)
	}
	prev, cur := s.prev[:m+1], s.cur[:m+1]
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
		// The band advances by at most one cell per row, so only its
		// fringe needs re-initializing: cur[lo-1] feeds this row's first
		// deletion and cur[hi+1] feeds the next row's insertion. The old
		// full-row wipe made banded DTW O(m^2) regardless of band width.
		cur[lo-1] = inf
		if hi < m {
			cur[hi+1] = inf
		}
		rowMin := inf
		xi := x[i-1]
		left := inf // cur[j-1], carried in a register
		for j := lo; j <= hi; j++ {
			c := xi - y[j-1]
			// A compare chain, not builtin min: a NaN insertion or
			// deletion neighbor is skipped rather than propagated, the
			// semantics refDTW's min3 pins.
			best := prev[j-1] // diagonal
			if prev[j] < best {
				best = prev[j] // insertion
			}
			if left < best {
				best = left // deletion
			}
			left = c*c + best
			cur[j] = left
			if left < rowMin {
				rowMin = left
			}
		}
		if rowMin >= cutoff {
			s.prev, s.cur = prev, cur
			dtwPool.Put(s)
			return rowMin
		}
		prev, cur = cur, prev
	}
	res := prev[m]
	s.prev, s.cur = prev, cur
	dtwPool.Put(s)
	return res
}

// dtwContext is DTW's measure.BoundContext: the Lemire min/max envelope of
// a series for the band width windowSize(DeltaPercent, m), plus the
// monotonic-deque scratch needed to refill it without allocating.
type dtwContext struct {
	deltaPercent int
	w            int // absolute half-width for the current length
	upper, lower []float64
	maxDq, minDq []int
}

// NewBoundContext implements measure.LowerBounded.
func (d DTW) NewBoundContext(m int) measure.BoundContext {
	c := &dtwContext{deltaPercent: d.DeltaPercent}
	c.grow(m)
	return c
}

func (c *dtwContext) grow(m int) {
	c.w = windowSize(c.deltaPercent, m)
	if cap(c.upper) < m {
		c.upper = make([]float64, m)
		c.lower = make([]float64, m)
		c.maxDq = make([]int, m)
		c.minDq = make([]int, m)
	}
	c.upper = c.upper[:m]
	c.lower = c.lower[:m]
	c.maxDq = c.maxDq[:m]
	c.minDq = c.minDq[:m]
}

// Fill implements measure.BoundContext: allocation-free when len(x)
// matches the current buffer length.
func (c *dtwContext) Fill(x []float64) {
	if len(x) != len(c.upper) {
		c.grow(len(x))
	}
	fillEnvelope(c.upper, c.lower, x, c.w, c.maxDq, c.minDq)
}

// fillEnvelope computes the running min/max envelope of y over windows
// [i-w, i+w] (clamped) into upper/lower using Lemire's monotonic deques in
// O(m), independent of w. maxDq and minDq are caller-owned scratch of
// length >= len(y).
func fillEnvelope(upper, lower, y []float64, w int, maxDq, minDq []int) {
	m := len(y)
	maxH, maxT := 0, 0 // live deque contents are maxDq[maxH:maxT]
	minH, minT := 0, 0
	for j := 0; j < m+w; j++ {
		if j < m {
			for maxT > maxH && y[maxDq[maxT-1]] <= y[j] {
				maxT--
			}
			maxDq[maxT] = j
			maxT++
			for minT > minH && y[minDq[minT-1]] >= y[j] {
				minT--
			}
			minDq[minT] = j
			minT++
		}
		i := j - w // center whose full window has now been pushed
		if i < 0 {
			continue
		}
		for maxDq[maxH] < i-w {
			maxH++
		}
		for minDq[minH] < i-w {
			minH++
		}
		upper[i] = y[maxDq[maxH]]
		lower[i] = y[minDq[minH]]
	}
}

// LowerBound implements measure.LowerBounded with the classic cascade:
//
//  1. LB_Kim (first/last): every warping path pays the (1,1) and (m,m)
//     cells, O(1);
//  2. LB_Keogh of x against y's envelope, O(m) with early abandoning —
//     partial sums are themselves valid bounds;
//  3. the reversed LB_Keogh of y against x's envelope.
//
// The bounds are combined by max (their index sets overlap, so they cannot
// be summed). cx and cy must be contexts produced by NewBoundContext and
// filled with x and y respectively.
func (d DTW) LowerBound(x, y []float64, cx, cy measure.BoundContext, cutoff float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	// LB_Kim: the corner cells lie on every path; for m == 1 they are the
	// same cell, paid once.
	c0 := x[0] - y[0]
	lb := c0 * c0
	if m > 1 {
		cl := x[m-1] - y[m-1]
		lb += cl * cl
	}
	if lb >= cutoff {
		return lb
	}
	ey := cy.(*dtwContext)
	if k := lbKeoghEnvelope(x, ey.upper, ey.lower, cutoff); k > lb {
		lb = k
	}
	if lb >= cutoff {
		return lb
	}
	ex := cx.(*dtwContext)
	if k := lbKeoghEnvelope(y, ex.upper, ex.lower, cutoff); k > lb {
		lb = k
	}
	return lb
}

// lbKeoghEnvelope accumulates the squared exceedance of x outside the
// [lower, upper] envelope, abandoning once the partial sum (itself a valid
// lower bound) reaches cutoff.
func lbKeoghEnvelope(x, upper, lower []float64, cutoff float64) float64 {
	var s float64
	for i, v := range x {
		if v > upper[i] {
			d := v - upper[i]
			s += d * d
		} else if v < lower[i] {
			d := lower[i] - v
			s += d * d
		}
		if s >= cutoff {
			return s
		}
	}
	return s
}
