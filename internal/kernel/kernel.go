// Package kernel implements the 4 kernel similarity measures of Section 8
// of the paper: the lock-step RBF kernel, the sliding SINK kernel (the
// shift-invariant kernel of GRAIL, built on the FFT cross-correlation), and
// the two elastic kernels GAK (global alignment, computed in linear space
// with per-row power-of-two rescaling, finishing in log space where a row
// would underflow) and KDTW (the regularized DTW kernel of
// Marteau & Gibet). Each kernel k is exposed as the dissimilarity 1 - k̂
// where k̂ is the kernel normalized by its self-similarities, so the single
// 1-NN implementation of the evaluation layer serves kernels too.
package kernel

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/elastic"
	"repro/internal/fft"
	"repro/internal/measure"
)

// canonical orders a pair of series so that the one whose samples' bit
// patterns compare lexicographically smaller comes first. GAK runs its
// recurrence on the canonical pair, so k(x, y) and k(y, x) perform the
// very same arithmetic (row rescaling included) and agree bitwise.
func canonical(x, y []float64) ([]float64, []float64) {
	for i := 0; i < len(x) && i < len(y); i++ {
		if a, b := math.Float64bits(x[i]), math.Float64bits(y[i]); a != b {
			if b < a {
				return y, x
			}
			break
		}
	}
	return x, y
}

// normalized converts a raw kernel value and the two self-kernel values
// into the dissimilarity 1 - k(x,y)/sqrt(k(x,x)k(y,y)); degenerate
// self-kernels (0, underflow) give the maximum distance 1.
func normalized(kxy, kxx, kyy float64) float64 {
	den := math.Sqrt(kxx * kyy)
	if den == 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 1
	}
	return 1 - kxy/den
}

//
// ---- RBF ----
//

// RBF is the radial basis function kernel k(x, y) = exp(-gamma*||x-y||^2),
// the general-purpose lock-step kernel of Table 6 (the one the paper finds
// significantly worse than NCCc). Its self-kernels are 1, so the distance
// is simply 1 - k.
type RBF struct {
	Gamma float64
}

// Name implements measure.Measure.
func (r RBF) Name() string { return fmt.Sprintf("rbf[g=%g]", r.Gamma) }

// Distance implements measure.Measure.
func (r RBF) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return 1 - math.Exp(-r.Gamma*s)
}

//
// ---- SINK ----
//

// SINK is the shift-invariant normalized kernel of GRAIL: the sum over all
// 2m-1 shifts of exp(gamma * ncc_w(x, y)) where ncc is the
// coefficient-normalized cross-correlation sequence, normalized by the
// self-kernels. Larger Gamma concentrates the kernel on the best alignment
// (recovering NCCc in the limit); small Gamma averages all alignments.
type SINK struct {
	Gamma float64
}

// Name implements measure.Measure.
func (s SINK) Name() string { return fmt.Sprintf("sink[g=%g]", s.Gamma) }

type sinkPrepared struct {
	plan *fft.Plan
	norm float64
	self float64 // unnormalized self-kernel value
}

// Prepare implements measure.Stateful.
func (s SINK) Prepare(x []float64) any {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	p := &sinkPrepared{plan: fft.NewPlan(x), norm: math.Sqrt(ss)}
	cc := p.plan.CrossCorrelateWith(p.plan)
	p.self = s.sumExp(cc, p.norm*p.norm)
	return p
}

// sinkScratch is one pair's cross-correlation output and FFT buffer,
// pooled so warm PreparedDistance calls are allocation-free.
type sinkScratch struct {
	cc  []float64
	buf []complex128
}

var sinkPool = sync.Pool{New: func() any { return new(sinkScratch) }}

// PreparedDistance implements measure.Stateful. The cross-correlation runs
// through fft.CrossCorrelateTo into pooled scratch, which is bitwise equal
// to CrossCorrelateWith.
func (s SINK) PreparedDistance(px, py any) float64 {
	a := px.(*sinkPrepared)
	b := py.(*sinkPrepared)
	sc := sinkPool.Get().(*sinkScratch)
	if n := a.plan.Len(); cap(sc.cc) < 2*n-1 {
		sc.cc = make([]float64, 2*n-1)
	}
	if m := a.plan.PaddedLen(); cap(sc.buf) < m {
		sc.buf = make([]complex128, m)
	}
	cc := a.plan.CrossCorrelateTo(b.plan, sc.cc, sc.buf)
	kxy := s.sumExp(cc, a.norm*b.norm)
	sinkPool.Put(sc)
	return normalized(kxy, a.self, b.self)
}

// sumExp evaluates sum_w exp(gamma * cc_w / den) with a zero-denominator
// guard (zero series: every coefficient defined as 0).
func (s SINK) sumExp(cc []float64, den float64) float64 {
	var sum float64
	if den == 0 {
		return float64(len(cc)) // exp(0) per shift
	}
	for _, v := range cc {
		sum += math.Exp(s.Gamma * v / den)
	}
	return sum
}

// Distance implements measure.Measure.
func (s SINK) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return s.PreparedDistance(s.Prepare(x), s.Prepare(y))
}

// SelfMatrix implements measure.SelfMatrixer: square self-dissimilarity
// matrices are filled by the batched GramEngine — one spectrum per series,
// one inverse FFT per pair, tiled parallel fill — with values bitwise
// identical to the per-pair prepared path. Ragged input declines the fast
// path so the caller's pairwise loop reproduces the usual length panic.
func (s SINK) SelfMatrix(series [][]float64, rows [][]float64) bool {
	ok, _ := s.SelfMatrixCtx(context.Background(), series, rows)
	return ok
}

// SelfMatrixCtx implements measure.ContextSelfMatrixer: the engine's
// preparation and tiled fill observe ctx at chunk granularity; on a
// non-nil error rows are partial and must be discarded.
func (s SINK) SelfMatrixCtx(ctx context.Context, series [][]float64, rows [][]float64) (bool, error) {
	if len(series) == 0 {
		return false, nil
	}
	m := len(series[0])
	for _, x := range series {
		if len(x) != m {
			return false, nil
		}
	}
	eng, err := NewGramEngineCtx(ctx, s, series)
	if err != nil {
		return true, err
	}
	return true, eng.FillDistancesCtx(ctx, rows)
}

//
// ---- GAK ----
//

// GAK is Cuturi's (2011) triangular-free global alignment kernel. Sigma is
// the bandwidth of the local Gaussian kernel (the gamma grid of Table 4).
// The distance is the normalized negative log kernel
// -(log k(x,y) - (log k(x,x) + log k(y,y))/2), which is >= 0. The
// recursion runs in linear space, one exp per cell, and finishes in log
// space (the logGAK recursion) from the first row that would underflow —
// from row 1 at small Sigma, where the local kernel itself vanishes, and
// partway on long series, whose rows outgrow the float64 exponent range.
// GAK is exactly symmetric: it runs on the canonical argument order.
type GAK struct {
	Sigma float64
}

// Name implements measure.Measure.
func (g GAK) Name() string { return fmt.Sprintf("gak[s=%g]", g.Sigma) }

// Symmetric implements measure.Symmetric: logK runs on the canonical pair.
func (g GAK) Symmetric() bool { return true }

// logK returns log k(x, y), computed on the canonical pair with rows from
// the elastic row pool.
func (g GAK) logK(x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	x, y = canonical(x, y)
	s, prev, cur := elastic.BorrowRows(m + 1)
	v, _ := g.logKRows(x, y, prev, cur)
	s.Release(prev, cur)
	return v
}

// minNormal is the smallest normal float64. A linear-space cell below it
// is subnormal or zero and has lost relative precision.
const minNormal = 0x1p-1022

// logKRows runs the global alignment recursion on the rows prev and cur
// (length m+1) and returns log k(x, y) together with the number of rows
// the linear-space phase completed (m when it never left it). Rows run in
// linear space while every cell stays a normal float64; at the first row
// that does not, the last good row is taken to logs and the log-space
// recursion finishes the table. When that happens in row 1 — always at
// small Sigma, where the local kernel itself underflows — the result is
// bitwise the plain log-space recursion. Which route runs depends only
// on the data.
func (g GAK) logKRows(x, y, prev, cur []float64) (float64, int) {
	m := len(x)
	twoSigmaSq := 2 * g.Sigma * g.Sigma
	for j := range prev {
		prev[j] = 0
	}
	prev[0] = 1
	exp2 := 0
	for i := 1; i <= m; i++ {
		e, ok := gakLinearRow(x[i-1], y, twoSigmaSq, prev, cur)
		if !ok {
			shift := float64(exp2) * math.Ln2
			for j := range prev {
				prev[j] = math.Log(prev[j]) + shift
			}
			return gakLogRows(x, y, i, twoSigmaSq, prev, cur), i - 1
		}
		exp2 += e
		prev, cur = cur, prev
	}
	return math.Log(prev[m]) + float64(exp2)*math.Ln2, m
}

// gakLinearRow computes one row of k(i,j) = (k(i-1,j) + k(i,j-1) +
// k(i-1,j-1)) * kappa(x_i, y_j) into cur from prev, with the local kernel
// kappa = t/(2-t), t = exp(-d^2/(2 sigma^2)): one exp per cell. It then
// scales the row by the power of two that brings its maximum into
// [0.5, 1) — exact for normal values — and returns that exponent. Since
// kappa <= 1 a row never exceeds 2m+1, so it cannot overflow. Every
// interior cell is positive in exact arithmetic; ok is false as soon as a
// cell, before or after scaling, is not a normal float64 (an underflow,
// or a non-finite sample), and prev is then untouched.
func gakLinearRow(xi float64, y []float64, twoSigmaSq float64, prev, cur []float64) (exp int, ok bool) {
	cur[0] = 0
	rowMax := 0.0
	for j := 1; j < len(cur); j++ {
		d := xi - y[j-1]
		t := math.Exp(-(d * d / twoSigmaSq))
		v := (prev[j] + cur[j-1] + prev[j-1]) * (t / (2 - t))
		if !(v >= minNormal) {
			return 0, false
		}
		cur[j] = v
		if v > rowMax {
			rowMax = v
		}
	}
	if _, exp = math.Frexp(rowMax); exp != 0 {
		scale := math.Ldexp(1, -exp)
		for j := 1; j < len(cur); j++ {
			if cur[j] *= scale; cur[j] < minNormal {
				return 0, false
			}
		}
	}
	return exp, true
}

// gakLogRows finishes the log-space global alignment recursion from row
// `from`, given row from-1 in prev, and returns log k(x, y). Its
// saturation shortcuts (gakPhi, logSumExp3) skip only transcendentals
// whose results are known exactly, so it is bitwise the plain logGAK
// recursion.
func gakLogRows(x, y []float64, from int, twoSigmaSq float64, prev, cur []float64) float64 {
	m := len(x)
	negInf := math.Inf(-1)
	for i := from; i <= m; i++ {
		cur[0] = negInf
		for j := 1; j <= m; j++ {
			cur[j] = logSumExp3(prev[j], cur[j-1], prev[j-1]) - gakPhi(x[i-1], y[j-1], twoSigmaSq)
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// log2 is math.Log(2) as that function computes it, so the saturated
// gakPhi adds the very value the full expression would.
var log2 = math.Log(2)

// gakPhi returns -log kappa = e + log(2 - exp(-e)), e = (a-b)^2/(2 sigma^2):
// the geometrically divisible local kernel that keeps GAK positive
// definite. From e >= 37 on, exp(-e) < 2^-53, so 2 - exp(-e) rounds to 2
// and the log term is exactly log(2).
func gakPhi(a, b, twoSigmaSq float64) float64 {
	d := a - b
	e := d * d / twoSigmaSq
	if e >= 37 {
		return e + log2
	}
	return e + math.Log(2-math.Exp(-e))
}

// logSumExp3 returns log(e^a + e^b + e^c) stably. When the two terms other
// than a finite maximum both sit more than 38 below it, each exponentiates
// below 2^-54, so in any summation order they vanish against the maximum's
// exp(0) = 1: the sum is exactly 1 and the result is max + log(1) = max + 0.
func logSumExp3(a, b, c float64) float64 {
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
	da, db, dc := a-max, b-max, c-max
	if (da < -38 && db < -38 || da < -38 && dc < -38 || db < -38 && dc < -38) && max < math.Inf(1) {
		return max + 0 // + 0 turns a -0 maximum into +0, as the full path does
	}
	return max + math.Log(math.Exp(da)+math.Exp(db)+math.Exp(dc))
}

type gakPrepared struct {
	x    []float64
	self float64 // log k(x, x)
}

// Prepare implements measure.Stateful.
func (g GAK) Prepare(x []float64) any {
	return &gakPrepared{x: x, self: g.logK(x, x)}
}

// PreparedDistance implements measure.Stateful.
func (g GAK) PreparedDistance(px, py any) float64 {
	a := px.(*gakPrepared)
	b := py.(*gakPrepared)
	return -(g.logK(a.x, b.x) - (a.self+b.self)/2)
}

// Distance implements measure.Measure.
func (g GAK) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return g.PreparedDistance(g.Prepare(x), g.Prepare(y))
}

//
// ---- KDTW ----
//

// KDTW is the regularized dynamic time warping kernel of Marteau & Gibet
// (2014): the sum of two recursions, an alignment term over all warping
// paths and a regularization term along the diagonal, with local kernel
// (exp(-nu*d^2) + epsilon)/(3*(1+epsilon)). Gamma plays the role of nu
// (Table 4's grid). The distance is 1 - k normalized by the self-kernels.
type KDTW struct {
	Gamma float64
}

// Name implements measure.Measure.
func (k KDTW) Name() string { return fmt.Sprintf("kdtw[g=%g]", k.Gamma) }

// kdtwEpsilon is the regularization constant of the reference
// implementation; it keeps the local kernel bounded away from zero so the
// products of long recursions do not vanish identically.
const kdtwEpsilon = 1e-3

// local returns the regularized local kernel value for points a and b.
func (k KDTW) local(a, b float64) float64 {
	d := a - b
	return (math.Exp(-k.Gamma*d*d) + kdtwEpsilon) / (3 * (1 + kdtwEpsilon))
}

// Symmetric implements measure.Symmetric. raw(y, x) computes the
// transpose of raw(x, y)'s tables with the same operations: the local
// kernel, the first row and column and diag are symmetric in the pair,
// each interior sum only swaps commutative addends, and the diagonal's
// three-term sum adds two cells the induction already shows equal. So
// the value agrees bitwise on finite input.
func (k KDTW) Symmetric() bool { return true }

// raw computes the unnormalized KDTW kernel value, with its five rows
// borrowed from the elastic row pool.
func (k KDTW) raw(x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 1
	}
	// DP is the alignment recursion, DP1 the regularization recursion, and
	// diag[i] the local kernel on the aligned pair (x_i, y_i).
	sd, diag, spare := elastic.BorrowRows(m + 1)
	s0, dpPrev, dpCur := elastic.BorrowRows(m + 1)
	s1, dp1Prev, dp1Cur := elastic.BorrowRows(m + 1)
	diag[0] = 1
	for i := 1; i <= m; i++ {
		diag[i] = k.local(x[i-1], y[i-1])
	}
	dpPrev[0] = 1
	dp1Prev[0] = 1
	for j := 1; j <= m; j++ {
		dpPrev[j] = dpPrev[j-1] * k.local(x[0], y[j-1])
		dp1Prev[j] = dp1Prev[j-1] * diag[j]
	}
	for i := 1; i <= m; i++ {
		dpCur[0] = dpPrev[0] * k.local(x[i-1], y[0])
		dp1Cur[0] = dp1Prev[0] * diag[i]
		for j := 1; j <= m; j++ {
			lk := k.local(x[i-1], y[j-1])
			dpCur[j] = (dpPrev[j] + dpCur[j-1] + dpPrev[j-1]) * lk
			if i == j {
				dp1Cur[j] = dp1Prev[j-1]*lk + dp1Prev[j]*diag[i] + dp1Cur[j-1]*diag[j]
			} else {
				dp1Cur[j] = dp1Prev[j]*diag[i] + dp1Cur[j-1]*diag[j]
			}
		}
		dpPrev, dpCur = dpCur, dpPrev
		dp1Prev, dp1Cur = dp1Cur, dp1Prev
	}
	v := dpPrev[m] + dp1Prev[m]
	s0.Release(dpPrev, dpCur)
	s1.Release(dp1Prev, dp1Cur)
	sd.Release(diag, spare)
	return v
}

type kdtwPrepared struct {
	x    []float64
	self float64
}

// Prepare implements measure.Stateful.
func (k KDTW) Prepare(x []float64) any {
	return &kdtwPrepared{x: x, self: k.raw(x, x)}
}

// PreparedDistance implements measure.Stateful.
func (k KDTW) PreparedDistance(px, py any) float64 {
	a := px.(*kdtwPrepared)
	b := py.(*kdtwPrepared)
	return normalized(k.raw(a.x, b.x), a.self, b.self)
}

// Distance implements measure.Measure.
func (k KDTW) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return k.PreparedDistance(k.Prepare(x), k.Prepare(y))
}

// All returns one representative instance of each of the 4 kernel
// functions, at the paper's unsupervised parameter choices (Table 6).
func All() []measure.Measure {
	return []measure.Measure{
		KDTW{Gamma: 0.125},
		GAK{Sigma: 0.1},
		SINK{Gamma: 5},
		RBF{Gamma: 2},
	}
}
