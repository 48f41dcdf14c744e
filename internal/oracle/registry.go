package oracle

import (
	"math"

	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/sliding"
)

// Numeric tolerance policy (documented in DESIGN.md):
//
//   - TolExact: measures whose optimized and reference implementations
//     perform the same floating-point operations in the same order (plain
//     lock-step loops, rolling-row DPs versus full-matrix DPs). The only
//     divergence admitted is compiler instruction fusion, so the bar is one
//     part in 1e12, relative.
//   - TolLogSpace: log-space or product-form kernel recursions (GAK, KDTW),
//     where exp/log rounding compounds across O(m^2) cells.
//   - TolFFT: measures computed through the FFT cross-correlation versus
//     the direct O(m^2) sliding sums — error grows with transform length.
const (
	TolExact    = 1e-12
	TolLogSpace = 1e-9
	TolFFT      = 1e-6
)

// Pair couples an optimized measure with its reference implementation.
type Pair struct {
	M   measure.Measure
	Ref Ref
	// Tol is the relative agreement tolerance: values a, b agree when
	// |a-b| <= Tol*max(1, |a|, |b|), both are +Inf, or they are bitwise
	// identical.
	Tol float64
	// FiniteOnly marks measures whose optimized path propagates NaN/Inf
	// globally where the direct path localizes it (anything routed through
	// an FFT: one non-finite sample poisons every lag of the transform but
	// only some lags of the direct sums). Oracle agreement is skipped on
	// non-finite or overflow-scale inputs; all other checks still run.
	FiniteOnly bool
}

// term builds a lock-step Pair from a per-index term summed by both sides.
func term(m measure.Measure, f func(a, b float64) float64) Pair {
	return Pair{M: m, Ref: sum(f), Tol: TolExact}
}

// Pairs returns the full differential-testing registry: every measure the
// library registers (the All() inventories of the lockstep, sliding,
// elastic, and kernel packages), the elastic extensions, and extra
// parameterizations covering band-width edge cases. Embedding measures need
// a fitted training split and are exercised separately by the harness
// tests.
func Pairs() []Pair {
	abs := math.Abs
	pairs := []Pair{
		// Lp Minkowski family.
		{M: lockstep.Euclidean(), Ref: refEuclidean, Tol: TolExact},
		term(lockstep.Manhattan(), func(a, b float64) float64 { return abs(a - b) }),
		{M: lockstep.Minkowski(0.5), Ref: refMinkowski(0.5), Tol: TolExact},
		{M: lockstep.Minkowski(3), Ref: refMinkowski(3), Tol: TolExact},
		{M: lockstep.Chebyshev(), Ref: refChebyshev, Tol: TolExact},

		// L1 family.
		{M: lockstep.Sorensen(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return abs(a - b) },
				func(a, b float64) float64 { return a + b })},
		{M: lockstep.Gower(), Ref: refGower, Tol: TolExact},
		{M: lockstep.Soergel(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return abs(a - b) }, math.Max)},
		{M: lockstep.Kulczynski(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return abs(a - b) }, math.Min)},
		term(lockstep.Canberra(), func(a, b float64) float64 { return div(abs(a-b), abs(a+b)) }),
		term(lockstep.Lorentzian(), func(a, b float64) float64 { return math.Log1p(abs(a - b)) }),

		// Intersection family.
		{M: lockstep.Intersection(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				var s float64
				for i := range x {
					s += abs(x[i] - y[i])
				}
				return s / 2
			}},
		term(lockstep.WaveHedges(), func(a, b float64) float64 { return div(abs(a-b), math.Max(a, b)) }),
		{M: lockstep.Czekanowski(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return abs(a - b) },
				func(a, b float64) float64 { return a + b })},
		{M: lockstep.Motyka(), Tol: TolExact,
			Ref: ratio(math.Max, func(a, b float64) float64 { return a + b })},
		{M: lockstep.KulczynskiS(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return abs(a - b) }, math.Min)},
		{M: lockstep.Ruzicka(), Tol: TolExact,
			Ref: func(x, y []float64) float64 { return 1 - ratio(math.Min, math.Max)(x, y) }},
		{M: lockstep.Tanimoto(), Tol: TolExact,
			Ref: ratio(func(a, b float64) float64 { return math.Max(a, b) - math.Min(a, b) }, math.Max)},

		// Inner product family.
		{M: lockstep.InnerProduct(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				var s float64
				for i := range x {
					s += x[i] * y[i]
				}
				return -s
			}},
		{M: lockstep.HarmonicMean(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				var s float64
				for i := range x {
					s += div(x[i]*y[i], x[i]+y[i])
				}
				return -2 * s
			}},
		{M: lockstep.Cosine(), Ref: refCosine, Tol: TolExact},
		{M: lockstep.KumarHassebrook(), Ref: refKumarHassebrook, Tol: TolExact},
		{M: lockstep.Jaccard(), Ref: refJaccard, Tol: TolExact},
		{M: lockstep.Dice(), Ref: refDice, Tol: TolExact},

		// Fidelity family.
		{M: lockstep.Fidelity(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				var s float64
				for i := range x {
					s += safeSqrt(x[i] * y[i])
				}
				return sanitizeNaN(1 - s)
			}},
		{M: lockstep.Bhattacharyya(), Ref: refBhattacharyya, Tol: TolExact},
		{M: lockstep.Hellinger(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(math.Sqrt(2 * sum(sqrtDiffSq)(x, y)))
			}},
		{M: lockstep.Matusita(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(math.Sqrt(sum(sqrtDiffSq)(x, y)))
			}},
		{M: lockstep.SquaredChord(), Tol: TolExact,
			Ref: func(x, y []float64) float64 { return sanitizeNaN(sum(sqrtDiffSq)(x, y)) }},

		// Squared L2 (chi-squared) family.
		term(lockstep.SquaredEuclidean(), func(a, b float64) float64 { return (a - b) * (a - b) }),
		term(lockstep.PearsonChiSq(), func(a, b float64) float64 { return div((a-b)*(a-b), b) }),
		term(lockstep.NeymanChiSq(), func(a, b float64) float64 { return div((a-b)*(a-b), a) }),
		term(lockstep.SquaredChiSq(), func(a, b float64) float64 { return div((a-b)*(a-b), a+b) }),
		{M: lockstep.ProbSymmetricChiSq(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return 2 * sum(func(a, b float64) float64 { return div((a-b)*(a-b), a+b) })(x, y)
			}},
		{M: lockstep.Divergence(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return 2 * sum(func(a, b float64) float64 { return div((a-b)*(a-b), (a+b)*(a+b)) })(x, y)
			}},
		{M: lockstep.Clark(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return math.Sqrt(sum(func(a, b float64) float64 {
					r := div(abs(a-b), abs(a+b))
					return r * r
				})(x, y))
			}},
		term(lockstep.AdditiveSymmetricChiSq(), func(a, b float64) float64 {
			return div((a-b)*(a-b)*(a+b), a*b)
		}),

		// Shannon entropy family.
		{M: lockstep.KullbackLeibler(), Tol: TolExact,
			Ref: func(x, y []float64) float64 { return sanitizeNaN(sum(xlogxOverY)(x, y)) }},
		{M: lockstep.Jeffreys(), Ref: refJeffreys, Tol: TolExact},
		{M: lockstep.KDivergence(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(sum(func(a, b float64) float64 { return xlogxOverY(a, (a+b)/2) })(x, y))
			}},
		{M: lockstep.Topsoe(), Tol: TolExact,
			Ref: func(x, y []float64) float64 { return sanitizeNaN(sum(topsoeTerm)(x, y)) }},
		{M: lockstep.JensenShannon(), Tol: TolExact,
			Ref: func(x, y []float64) float64 { return sanitizeNaN(sum(topsoeTerm)(x, y) / 2) }},
		{M: lockstep.JensenDifference(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(sum(func(a, b float64) float64 {
					m := (a + b) / 2
					return (xlogx(a)+xlogx(b))/2 - xlogx(m)
				})(x, y))
			}},

		// Combination measures.
		{M: lockstep.Taneja(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(sum(func(a, b float64) float64 {
					return xlogxOverY((a+b)/2, safeSqrt(a*b))
				})(x, y))
			}},
		{M: lockstep.KumarJohnson(), Tol: TolExact,
			Ref: func(x, y []float64) float64 {
				return sanitizeNaN(sum(func(a, b float64) float64 {
					num := a*a - b*b
					prod := a * b
					return div(num*num, 2*safeSqrt(prod*prod*prod))
				})(x, y))
			}},
		{M: lockstep.AvgL1Linf(), Ref: refAvgL1Linf, Tol: TolExact},

		// Vicissitude measures.
		term(lockstep.Emanon1(), func(a, b float64) float64 { return div(abs(a-b), math.Min(a, b)) }),
		term(lockstep.Emanon2(), func(a, b float64) float64 {
			mn := math.Min(a, b)
			return div((a-b)*(a-b), mn*mn)
		}),
		term(lockstep.Emanon3(), func(a, b float64) float64 { return div((a-b)*(a-b), math.Min(a, b)) }),
		term(lockstep.Emanon4(), func(a, b float64) float64 { return div((a-b)*(a-b), math.Max(a, b)) }),
		{M: lockstep.Emanon5(), Ref: refEmanonMinMax(true), Tol: TolExact},
		{M: lockstep.Emanon6(), Ref: refEmanonMinMax(false), Tol: TolExact},

		// Beyond the survey.
		{M: lockstep.DISSIM(), Ref: refDISSIM, Tol: TolExact},
		{M: lockstep.ASD(), Ref: refASD, Tol: TolExact},

		// Sliding measures: FFT versus direct sliding sums.
		{M: sliding.New(sliding.NCC), Ref: refNCC, Tol: TolFFT, FiniteOnly: true},
		{M: sliding.New(sliding.NCCb), Ref: refNCCb, Tol: TolFFT, FiniteOnly: true},
		{M: sliding.New(sliding.NCCu), Ref: refNCCu, Tol: TolFFT, FiniteOnly: true},
		{M: sliding.New(sliding.NCCc), Ref: refNCCc, Tol: TolFFT, FiniteOnly: true},

		// Elastic measures: rolling-row banded DPs versus full matrices.
		// DTW at the registered band plus the band edge cases (minimum
		// clamp, unconstrained).
		{M: elastic.DTW{DeltaPercent: 10}, Ref: refDTW(10), Tol: TolExact},
		{M: elastic.DTW{DeltaPercent: 0}, Ref: refDTW(0), Tol: TolExact},
		{M: elastic.DTW{DeltaPercent: 5}, Ref: refDTW(5), Tol: TolExact},
		{M: elastic.DTW{DeltaPercent: 100}, Ref: refDTW(100), Tol: TolExact},
		{M: elastic.LCSS{DeltaPercent: 5, Epsilon: 0.2}, Ref: refLCSS(5, 0.2), Tol: TolExact},
		{M: elastic.LCSS{DeltaPercent: 100, Epsilon: 0.5}, Ref: refLCSS(100, 0.5), Tol: TolExact},
		{M: elastic.EDR{Epsilon: 0.1}, Ref: refEDR(0.1), Tol: TolExact},
		{M: elastic.ERP{G: 0}, Ref: refERP(0), Tol: TolExact},
		{M: elastic.MSM{C: 0.5}, Ref: refMSM(0.5), Tol: TolExact},
		{M: elastic.TWE{Lambda: 1, Nu: 0.0001}, Ref: refTWE(1, 0.0001), Tol: TolExact},
		{M: elastic.Swale{Epsilon: 0.2, P: 5, R: 1}, Ref: refSwale(0.2, 5, 1), Tol: TolExact},

		// Elastic extensions.
		{M: elastic.DDTW{DeltaPercent: 10}, Ref: refDDTW(10), Tol: TolExact},
		{M: elastic.DDBlend{DeltaPercent: 10, Alpha: 0.5}, Ref: refDDBlend(10, 0.5), Tol: TolExact},
		{M: elastic.WDTW{G: 0.05}, Ref: refWDTW(0.05, 1), Tol: TolExact},
		{M: elastic.CID{Base: elastic.DTW{DeltaPercent: 10}}, Ref: refCID(refDTW(10)), Tol: TolExact},

		// Kernel measures.
		{M: kernel.RBF{Gamma: 2}, Ref: refRBF(2), Tol: TolExact},
		{M: kernel.SINK{Gamma: 5}, Ref: refSINK(5), Tol: TolFFT, FiniteOnly: true},
		// GAK at sigma = 0.1 takes the log-space route on unit-scale data;
		// sigma = 1 and 20 take the linear-space one.
		{M: kernel.GAK{Sigma: 0.1}, Ref: refGAK(0.1), Tol: TolLogSpace, FiniteOnly: true},
		{M: kernel.GAK{Sigma: 1}, Ref: refGAK(1), Tol: TolLogSpace, FiniteOnly: true},
		{M: kernel.GAK{Sigma: 20}, Ref: refGAK(20), Tol: TolLogSpace, FiniteOnly: true},
		{M: kernel.KDTW{Gamma: 0.125}, Ref: refKDTW(0.125), Tol: TolLogSpace, FiniteOnly: true},
		{M: kernel.KDTW{Gamma: 1}, Ref: refKDTW(1), Tol: TolLogSpace, FiniteOnly: true},
	}
	return pairs
}

// sqrtDiffSq is the (sqrt a - sqrt b)^2 term of the fidelity family.
func sqrtDiffSq(a, b float64) float64 {
	d := safeSqrt(a) - safeSqrt(b)
	return d * d
}

// topsoeTerm is x ln(2x/(x+y)) + y ln(2y/(x+y)).
func topsoeTerm(a, b float64) float64 {
	m := (a + b) / 2
	return xlogxOverY(a, m) + xlogxOverY(b, m)
}
