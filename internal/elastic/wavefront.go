package elastic

import (
	"context"
	"math"
	"runtime"
	"sync"

	"repro/internal/measure"
	"repro/internal/par"
)

// This file implements the diagonal-blocked (wavefront) evaluation of the
// elastic DP recurrences. The m-by-m cost matrix is cut into square blocks;
// every block depends only on its left, top, and top-left neighbors, so the
// blocks of one anti-diagonal are independent once the previous diagonal is
// done and can be scheduled across par workers (par.WavefrontCtx). Inside a
// block the recurrence runs the same per-cell arithmetic as the scalar
// two-row DP, so the result is bitwise-identical regardless of block size or
// worker count: floating-point addition is not associative, but the blocking
// never reassociates anything — it only changes *when* each cell is
// computed, never *from what*. Both paths follow the package's kernel rule
// (see elastic.go): the same additions in the same order, with only builtin
// min/max — exactly commutative and associative — free to regroup.
//
// Shared state between blocks lives in three flat buffers owned by a pooled
// arena:
//
//	top[j-1]    = DP(i_bottom, j): the bottom row of the block above, or the
//	              DP boundary row before any block of that column ran;
//	left[i-1]   = DP(i, j_right): the right column of the block to the left,
//	              or the DP boundary column;
//	corner[bi]  = DP(i0-1, j0-1) for the next block of block-row bi.
//
// A block reads its top row, left column, and corner, runs the two-row DP
// over its cells using per-worker row scratch, and writes its bottom row and
// right column back in place. The corner for its right neighbor is the last
// element of its own top input, captured before the bottom row overwrites
// it. Within one diagonal, blocks of distinct rows and columns touch
// disjoint segments, so no synchronization beyond the diagonal barrier is
// needed (verified under -race).

// wfBlock is the block edge length. 256 cells keep the two scratch rows
// (2 KiB each) plus the x/y slices of the block comfortably inside L1 while
// leaving enough blocks per diagonal to balance across workers. A package
// variable so exactness tests can shrink it and exercise multi-block
// schedules on short series.
var wfBlock = 256

// wavefrontMinLen is the crossover below which Distance keeps the scalar
// path: a length-m pair yields only about (m/wfBlock)^2 blocks, and under
// ~16 blocks the barrier and scratch traffic cost more than a single core
// retires. Package variable for benchmarks and tests.
var wavefrontMinLen = 1024

// wavefrontEligible reports whether Distance should auto-route a length-m
// pair through the wavefront engine: long enough to amortize the scheduling
// and more than one core to schedule onto.
func wavefrontEligible(m int) bool {
	return m >= wavefrontMinLen && runtime.GOMAXPROCS(0) > 1
}

// SetWavefrontBlock overrides the wavefront block edge and returns a
// restore func. It exists so external differential harnesses (the oracle)
// can force multi-block schedules onto short fuzz inputs; it is not safe
// to call concurrently with wavefront evaluation.
func SetWavefrontBlock(n int) (restore func()) {
	old := wfBlock
	wfBlock = n
	return func() { wfBlock = old }
}

// wfArena is the pooled buffer set of one wavefront run: the shared
// boundary buffers plus every worker's two DP rows in one flat slice.
type wfArena struct {
	top, left, corner []float64
	rows              []float64
}

var wfPool = sync.Pool{New: func() any { return new(wfArena) }}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// wfRowKernel fills one DP row segment: cur[k] = DP(i, j0-1+k) for
// k in [1, j1-j0+1], given prev[k] = DP(i-1, j0-1+k) for k in [0, j1-j0+1]
// and cur[0] = DP(i, j0-1) preset by the engine. Kernels must perform the
// same per-cell arithmetic as their scalar counterpart (same additions in
// the same order; min/max may regroup) so the blocked result stays
// bitwise-identical.
type wfRowKernel func(i, j0, j1 int, prev, cur []float64)

// runWavefront evaluates an R-by-C dynamic program (cells (i, j) with
// i in [1, R], j in [1, C]) by blocked anti-diagonal wavefront and returns
// DP(R, C). corner0 is DP(0, 0); topInit and leftInit fill the boundary
// row DP(0, j) (dst[j-1], j in [1, C]) and boundary column DP(i, 0)
// (dst[i-1], i in [1, R]). w >= 0 declares a Sakoe-Chiba band of absolute
// half-width w: blocks entirely outside the band are skipped and their
// boundaries filled with oob (the value out-of-band cells hold in the
// scalar DP: +Inf for DTW, 0 for LCSS); kernels still handle the band's
// fringe inside partially covered blocks. w < 0 disables banding.
//
// Cancellation follows par.WavefrontCtx: on a cancelled context the run
// stops at the next diagonal (or chunk) boundary and returns ctx.Err().
func runWavefront(ctx context.Context, R, C, w int, oob, corner0 float64,
	topInit, leftInit func(dst []float64), kernel wfRowKernel) (float64, error) {
	if R <= 0 || C <= 0 {
		return corner0, nil
	}
	bs := wfBlock
	nbi := (R + bs - 1) / bs
	nbj := (C + bs - 1) / bs
	workers := par.Workers(min(nbi, nbj))

	a := wfPool.Get().(*wfArena)
	a.top = growFloats(a.top, C)
	a.left = growFloats(a.left, R)
	a.corner = growFloats(a.corner, nbi)
	rowLen := bs + 1
	a.rows = growFloats(a.rows, workers*2*rowLen)
	top, left, corner, rows := a.top, a.left, a.corner, a.rows

	topInit(top)
	leftInit(left)
	corner[0] = corner0
	for bi := 1; bi < nbi; bi++ {
		corner[bi] = left[bi*bs-1]
	}

	blocksOf := func(d int) int {
		lo := d - (nbj - 1)
		if lo < 0 {
			lo = 0
		}
		hi := d
		if hi > nbi-1 {
			hi = nbi - 1
		}
		return hi - lo + 1
	}
	err := par.WavefrontCtx(ctx, nbi+nbj-1, workers, blocksOf, func(worker, d, k int) {
		lo := d - (nbj - 1)
		if lo < 0 {
			lo = 0
		}
		bi := lo + k
		bj := d - bi
		i0, i1 := bi*bs+1, (bi+1)*bs
		if i1 > R {
			i1 = R
		}
		j0, j1 := bj*bs+1, (bj+1)*bs
		if j1 > C {
			j1 = C
		}
		width := j1 - j0 + 1
		topSeg := top[j0-1 : j1]
		leftSeg := left[i0-1 : i1]
		// The right neighbor's corner is DP(i0-1, j1): the last element of
		// this block's top input, captured before the bottom row replaces it.
		nextCorner := topSeg[width-1]
		if w >= 0 && (j1 < i0-w || j0 > i1+w) {
			// Entirely outside the band: every cell holds the scalar DP's
			// out-of-band value; only the boundaries need materializing.
			for t := range topSeg {
				topSeg[t] = oob
			}
			for t := range leftSeg {
				leftSeg[t] = oob
			}
			corner[bi] = nextCorner
			return
		}
		base := worker * 2 * rowLen
		prev := rows[base : base+rowLen]
		cur := rows[base+rowLen : base+2*rowLen]
		prev[0] = corner[bi]
		copy(prev[1:width+1], topSeg)
		for i := i0; i <= i1; i++ {
			cur[0] = leftSeg[i-i0]
			kernel(i, j0, j1, prev, cur)
			leftSeg[i-i0] = cur[width]
			prev, cur = cur, prev
		}
		copy(topSeg, prev[1:width+1])
		corner[bi] = nextCorner
	})
	res := top[C-1]
	wfPool.Put(a)
	if err != nil {
		return 0, err
	}
	return res, nil
}

// DistanceWavefront computes banded DTW with the blocked wavefront engine.
// Bitwise-identical to Distance on finite inputs; on series containing
// NaN/Inf the two paths agree after measure.Sanitize (the scalar row-minimum
// early exit can stop on an all-+Inf row that the wavefront evaluates
// through). Distance auto-routes here for long series on multi-core; this
// method always takes the blocked path, so tests and benchmarks can pin it.
func (d DTW) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	w := windowSize(d.DeltaPercent, m)
	inf := math.Inf(1)
	fillInf := func(dst []float64) {
		for t := range dst {
			dst[t] = inf
		}
	}
	return runWavefront(ctx, m, m, w, inf, 0, fillInf, fillInf,
		func(i, j0, j1 int, prev, cur []float64) {
			lo, hi := i-w, i+w
			xi := x[i-1]
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				if j < lo || j > hi {
					left = inf
					cur[k] = left
					continue
				}
				c := xi - y[j-1]
				best := prev[k-1] // diagonal
				if prev[k] < best {
					best = prev[k] // insertion
				}
				if left < best {
					best = left // deletion
				}
				left = c*c + best
				cur[k] = left
			}
		})
}

// DistanceWavefront computes banded LCSS with the blocked wavefront engine;
// bitwise-identical to Distance. Out-of-band cells hold 0, exactly like the
// scalar fringe-cleared band.
func (l LCSS) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	w := windowSize(l.DeltaPercent, m)
	zero := func(dst []float64) {
		for t := range dst {
			dst[t] = 0
		}
	}
	v, err := runWavefront(ctx, m, m, w, 0, 0, zero, zero,
		func(i, j0, j1 int, prev, cur []float64) {
			lo, hi := i-w, i+w
			xi := x[i-1]
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				switch {
				case j < lo || j > hi:
					left = 0
				case math.Abs(xi-y[j-1]) <= l.Epsilon:
					left = prev[k-1] + 1
				default:
					left = max(prev[k], left)
				}
				cur[k] = left
			}
		})
	if err != nil {
		return 0, err
	}
	return 1 - v/float64(m), nil
}

// DistanceWavefront computes EDR with the blocked wavefront engine;
// bitwise-identical to Distance.
func (e EDR) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	countInit := func(dst []float64) {
		for t := range dst {
			dst[t] = float64(t + 1)
		}
	}
	return runWavefront(ctx, m, m, -1, 0, 0, countInit, countInit,
		func(i, j0, j1 int, prev, cur []float64) {
			xi := x[i-1]
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				subCost := 1.0
				if math.Abs(xi-y[j-1]) <= e.Epsilon {
					subCost = 0
				}
				left = min(min(prev[k-1]+subCost, prev[k]+1), left+1)
				cur[k] = left
			}
		})
}

// DistanceWavefront computes ERP with the blocked wavefront engine;
// bitwise-identical to Distance. The boundary row and column are the same
// running gap-cost prefix sums the scalar DP accumulates.
func (e ERP) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	prefix := func(src []float64) func(dst []float64) {
		return func(dst []float64) {
			s := 0.0
			for t := range dst {
				s += math.Abs(src[t] - e.G)
				dst[t] = s
			}
		}
	}
	return runWavefront(ctx, m, m, -1, 0, 0, prefix(y), prefix(x),
		func(i, j0, j1 int, prev, cur []float64) {
			xi := x[i-1]
			gx := math.Abs(xi - e.G)
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				yj := y[j-1]
				match := prev[k-1] + math.Abs(xi-yj)
				gapX := prev[k] + gx
				left = min(min(match, gapX), left+math.Abs(yj-e.G))
				cur[k] = left
			}
		})
}

// DistanceWavefront computes MSM with the blocked wavefront engine;
// bitwise-identical to Distance. MSM's scalar DP is n-by-n with a
// recurrence-defined first row and column; those are accumulated serially
// as the wavefront boundaries and the (n-1)-by-(n-1) interior is blocked.
func (m MSM) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	n := len(x)
	if n == 0 {
		return 0, nil
	}
	corner0 := math.Abs(x[0] - y[0])
	if n == 1 {
		return corner0, nil
	}
	topInit := func(dst []float64) {
		s := corner0
		for t := range dst {
			s += m.msmCost(y[t+1], x[0], y[t])
			dst[t] = s
		}
	}
	leftInit := func(dst []float64) {
		s := corner0
		for t := range dst {
			s += m.msmCost(x[t+1], x[t], y[0])
			dst[t] = s
		}
	}
	return runWavefront(ctx, n-1, n-1, -1, 0, corner0, topInit, leftInit,
		func(i, j0, j1 int, prev, cur []float64) {
			xi, xim := x[i], x[i-1]
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				yj := y[j]
				move := prev[k-1] + math.Abs(xi-yj)
				split := prev[k] + m.msmCost(xi, xim, yj)
				left = min(min(move, split), left+m.msmCost(yj, xi, y[j-1]))
				cur[k] = left
			}
		})
}

// DistanceWavefront computes TWE with the blocked wavefront engine;
// bitwise-identical to Distance. The scalar DP's padded series (a leading
// zero sample) is reproduced by index arithmetic instead of copies.
func (t TWE) DistanceWavefront(ctx context.Context, x, y []float64) (float64, error) {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0, nil
	}
	inf := math.Inf(1)
	fillInf := func(dst []float64) {
		for t := range dst {
			dst[t] = inf
		}
	}
	return runWavefront(ctx, m, m, -1, inf, 0, fillInf, fillInf,
		func(i, j0, j1 int, prev, cur []float64) {
			xi := x[i-1] // xp[i]
			xim := 0.0   // xp[i-1]: the pad sample when i == 1
			if i > 1 {
				xim = x[i-2]
			}
			axd := math.Abs(xi - xim)
			left := cur[0]
			for j := j0; j <= j1; j++ {
				k := j - j0 + 1
				yj := y[j-1]
				yjm := 0.0
				if j > 1 {
					yjm = y[j-2]
				}
				delA := prev[k] + axd + t.Nu + t.Lambda
				match := prev[k-1] + math.Abs(xi-yj) + math.Abs(xim-yjm) +
					2*t.Nu*math.Abs(float64(i-j))
				left = min(min(match, delA), left+math.Abs(yj-yjm)+t.Nu+t.Lambda)
				cur[k] = left
			}
		})
}
