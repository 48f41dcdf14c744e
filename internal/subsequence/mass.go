// Package subsequence implements FFT-based similarity search for
// subsequences: the MASS algorithm (Mueen's Algorithm for Similarity
// Search), which computes the z-normalized Euclidean distance between a
// query and every subsequence of a long series in O(n log n) — the
// "fastest similarity search" primitive the paper cites when discussing
// ED's role in time-series querying (Section 2, M2) — plus the matrix
// profile built on it. The self-join profile is computed by the
// tile-walk engine in internal/profile; the one-FFT-per-row STAMP
// formulation is kept as MatrixProfileSTAMP, the exact baseline the
// engine is benchmarked and cross-checked against.
package subsequence

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/profile"
)

// Searcher precomputes everything repeated MASS scans of one series at a
// fixed window length reuse: the padded FFT spectrum (one forward
// transform amortized over every query) and the running per-window
// statistics. DistanceProfile is one-shot; search loops that scan many
// queries against the same series (STAMP, TopK) build one Searcher so the
// per-scan cost drops to a single query transform.
type Searcher struct {
	t    []float64
	w    int
	plan *fft.SlidingPlan
	mean []float64
	std  []float64
	con  []bool
	dots []float64
	cbuf []complex128
}

// NewSearcher builds a searcher over t for queries of length w. It panics
// when w < 2 or w > len(t), like DistanceProfile.
func NewSearcher(t []float64, w int) *Searcher {
	n := len(t)
	if w < 2 {
		panic(fmt.Sprintf("subsequence: query length %d < 2", w))
	}
	if w > n {
		panic(fmt.Sprintf("subsequence: query length %d > series length %d", w, n))
	}
	s := &Searcher{t: t, w: w, plan: fft.NewSlidingPlan(t, w)}
	wins := n - w + 1
	s.mean = make([]float64, wins)
	s.std = make([]float64, wins)
	s.con = make([]bool, wins)
	s.dots = make([]float64, wins)
	s.cbuf = make([]complex128, s.plan.PaddedLen())
	// The same running-sum recurrences and constancy predicate as the
	// one-shot path, so Profile reproduces DistanceProfile bitwise.
	var tSum, tSumSq float64
	for i := 0; i < w; i++ {
		tSum += t[i]
		tSumSq += t[i] * t[i]
	}
	for i := 0; i < wins; i++ {
		if i > 0 {
			tSum += t[i+w-1] - t[i-1]
			tSumSq += t[i+w-1]*t[i+w-1] - t[i-1]*t[i-1]
		}
		tMean := tSum / float64(w)
		tVar := tSumSq/float64(w) - tMean*tMean
		if tVar < 0 {
			tVar = 0
		}
		s.mean[i] = tMean
		s.std[i] = math.Sqrt(tVar)
		s.con[i] = isConstantVar(tVar, tSumSq/float64(w))
	}
	return s
}

// Profile computes the z-normalized distance profile of query q (length
// w) against the planned series, writing into dst (reused when capacity
// allows) and returning dst[:len(t)-w+1]. Values are bitwise identical to
// DistanceProfile(t, q).
func (s *Searcher) Profile(q, dst []float64) []float64 {
	if len(q) != s.w {
		panic(fmt.Sprintf("subsequence: query length %d, searcher window %d", len(q), s.w))
	}
	w := s.w
	var qSum, qSumSq float64
	for _, v := range q {
		qSum += v
		qSumSq += v * v
	}
	qMean := qSum / float64(w)
	qStd := math.Sqrt(math.Max(0, qSumSq/float64(w)-qMean*qMean))
	qConst := isConstantVar(qSumSq/float64(w)-qMean*qMean, qSumSq/float64(w))

	dots := s.plan.SlidingDots(q, s.dots, s.cbuf)
	wins := len(dots)
	if cap(dst) < wins {
		dst = make([]float64, wins)
	}
	dst = dst[:wins]
	maxDist := math.Sqrt(2 * float64(w))
	for i := 0; i < wins; i++ {
		if qConst || s.con[i] {
			dst[i] = maxDist
			continue
		}
		// z-normalized ED: sqrt(2w(1 - (dot - w*mq*mt)/(w*sq*st))).
		corr := (dots[i] - float64(w)*qMean*s.mean[i]) / (float64(w) * qStd * s.std[i])
		if corr > 1 {
			corr = 1
		}
		if corr < -1 {
			corr = -1
		}
		dst[i] = math.Sqrt(2 * float64(w) * (1 - corr))
	}
	return dst
}

// DistanceProfile returns the z-normalized Euclidean distance between the
// query q and every length-|q| subsequence of t, i.e. a slice of length
// len(t)-len(q)+1. Constant (zero-variance) subsequences or queries are
// assigned the maximum normalized distance sqrt(2*|q|) by convention.
// It panics when len(q) < 2 or len(q) > len(t).
func DistanceProfile(t, q []float64) []float64 {
	return NewSearcher(t, len(q)).Profile(q, nil)
}

// isConstantVar reports whether a window variance is zero up to the
// rounding noise of the running-sum computation, relative to the window's
// mean square meanSq.
func isConstantVar(variance, meanSq float64) bool {
	return variance <= 1e-12*(meanSq+1)
}

// Match is one search hit: the starting offset of the subsequence and its
// z-normalized Euclidean distance to the query.
type Match struct {
	Offset   int
	Distance float64
}

// TopK returns the k best non-overlapping matches of q in t (an exclusion
// zone of half the query length around each selected match suppresses
// trivial neighbors). Results are sorted by ascending distance.
//
// Zero-variance windows — and every window when the query itself is
// constant — carry the conventional sqrt(2w) ceiling in the distance
// profile, not a real distance, so they are never reported as matches: a
// flat tail cannot pad the results with phantom hits when k exceeds the
// number of genuine matches, and the result may then hold fewer than k
// entries. Genuine windows that happen to score near the ceiling (zero
// correlation) are unaffected; exclusion is by the zero-variance flag,
// not by distance value.
func TopK(t, q []float64, k int) []Match {
	s := NewSearcher(t, len(q))
	var qSum, qSumSq float64
	for _, v := range q {
		qSum += v
		qSumSq += v * v
	}
	qMean := qSum / float64(len(q))
	if isConstantVar(qSumSq/float64(len(q))-qMean*qMean, qSumSq/float64(len(q))) {
		return nil
	}
	prof := s.Profile(q, nil)
	w := len(q)
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	taken := make([]bool, len(prof))
	var out []Match
	for len(out) < k {
		best := -1
		for i, d := range prof {
			if taken[i] || s.con[i] {
				continue
			}
			if best == -1 || d < prof[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, Match{Offset: best, Distance: prof[best]})
		for i := best - excl; i <= best+excl; i++ {
			if i >= 0 && i < len(taken) {
				taken[i] = true
			}
		}
	}
	return out
}

// MatrixProfile computes the (self-join) matrix profile of t for window w:
// for every subsequence, the z-normalized ED to its nearest non-trivial
// neighbor (exclusion zone of max(1, w/2) around each position), plus the
// neighbor's offset; entries with no admissible neighbor are +Inf with
// index -1. It is a thin wrapper over the tile-walk engine in
// internal/profile (O(n^2) streamed cross terms; see MatrixProfileSTAMP
// for the O(n^2 log n) per-row-FFT baseline). The matrix profile
// underpins motif discovery and anomaly detection, two of the paper's
// motivating tasks.
func MatrixProfile(t []float64, w int) (prof []float64, index []int) {
	n := len(t)
	if w < 2 || w > n {
		panic(fmt.Sprintf("subsequence: window %d out of range for series length %d", w, n))
	}
	res, _ := profile.SelfJoin(context.Background(), t, w, profile.Options{})
	return res.Values, res.Indices
}

// ABProfile computes the AB-join matrix profile: for every window of a,
// the z-normalized ED to its nearest window of b and that window's
// offset. No exclusion zone applies — the series are distinct, so no
// match is trivial. Like MatrixProfile it is a wrapper over the streaming
// engine; it panics when w < 2 or w exceeds either series length.
func ABProfile(a, b []float64, w int) (prof []float64, index []int) {
	if w < 2 || w > len(a) || w > len(b) {
		panic(fmt.Sprintf("subsequence: window %d out of range for series lengths %d and %d",
			w, len(a), len(b)))
	}
	res, _ := profile.ABJoin(context.Background(), a, b, w, profile.Options{})
	return res.Values, res.Indices
}

// MatrixProfileSTAMP computes the self-join matrix profile in the
// original STAMP formulation — one full distance profile per subsequence,
// O(n^2 log n) — kept as the exact reference baseline the streaming
// engine is benchmarked and differentially tested against. The FFT plan
// and window statistics are hoisted into one Searcher, so the loop pays
// one query transform per row instead of re-planning the series each
// time.
func MatrixProfileSTAMP(t []float64, w int) (prof []float64, index []int) {
	n := len(t)
	if w < 2 || w > n {
		panic(fmt.Sprintf("subsequence: window %d out of range for series length %d", w, n))
	}
	s := NewSearcher(t, w)
	profiles := n - w + 1
	prof = make([]float64, profiles)
	index = make([]int, profiles)
	excl := w / 2
	if excl < 1 {
		excl = 1
	}
	dp := make([]float64, profiles)
	for i := 0; i < profiles; i++ {
		dp = s.Profile(t[i:i+w], dp)
		best, bestJ := math.Inf(1), -1
		for j, d := range dp {
			if j >= i-excl && j <= i+excl {
				continue // trivial match
			}
			if d < best {
				best, bestJ = d, j
			}
		}
		if bestJ == -1 {
			prof[i] = math.Inf(1)
			index[i] = -1
		} else {
			prof[i] = best
			index[i] = bestJ
		}
	}
	return prof, index
}

// Motif returns the best motif pair of t for window w: the two
// subsequences with the smallest mutual z-normalized distance (the global
// minimum of the matrix profile). When no window has an admissible
// neighbor it returns (-1, -1, +Inf).
func Motif(t []float64, w int) (i, j int, dist float64) {
	prof, index := MatrixProfile(t, w)
	best := -1
	for k := range prof {
		if index[k] < 0 {
			continue
		}
		if best == -1 || prof[k] < prof[best] {
			best = k
		}
	}
	if best == -1 {
		return -1, -1, math.Inf(1)
	}
	return best, index[best], prof[best]
}

// Discord returns the top anomaly of t for window w: the subsequence
// whose nearest admissible neighbor is farthest (the global maximum of
// the finite matrix-profile entries). Windows with no admissible neighbor
// at all (+Inf entries: every other window inside the exclusion zone)
// carry no distance information and are never reported, so a series whose
// profile is entirely +Inf yields the (-1, +Inf) sentinel rather than a
// bogus offset-0 discord.
func Discord(t []float64, w int) (offset int, dist float64) {
	prof, _ := MatrixProfile(t, w)
	best := -1
	for k := range prof {
		if math.IsInf(prof[k], 1) {
			continue
		}
		if best == -1 || prof[k] > prof[best] {
			best = k
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, prof[best]
}
