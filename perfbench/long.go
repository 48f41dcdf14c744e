package main

import (
	"context"
	"fmt"
	"math"
)

// Long-series inputs: the only traffic that reaches the matrix-profile
// engine and the elastic DPs' long-series path (the archive caps series
// at 512 points).
const (
	longN       = 1 << 14 // self-join series
	longB       = 1 << 12 // AB-join target
	longW       = 128     // subsequence window
	longTopK    = 5
	longChecked = 8 // profile rows per join the check recomputes
)

// longPairLens are the lengths the single elastic pairs are timed at.
var longPairLens = []int{1024, 4096}

type longSeries struct {
	e     env
	t, b  []float64
	x, y  [][]float64 // pair inputs, one per entry of longPairLens
	pairs []row
	eng   *ProfileEng
	first *longOut
}

// longOut is one pass's outputs.
type longOut struct {
	self, ab       *Profile
	motif, discord int
	top            []Match
	pairVals       [][]float64 // [length][measure]
}

func setupLong(ctx context.Context, e env, sp span) (runner, error) {
	l := &longSeries{e: e, pairs: longPairs(), eng: newProfileEngine()}
	g := sp.child("dataset.generate")
	walk := generateSet(e.seed, famWalk, longN, 2, 2, 1)
	ecg := generateSet(e.seed+1, famECG, longPairLens[len(longPairLens)-1], 2, 2, 1)
	g.end()
	n := sp.child("norm.normalize")
	l.t = zNorm(walk.Train[0])
	l.b = zNorm(walk.Train[1][:longB])
	for _, m := range longPairLens {
		l.x = append(l.x, zNorm(ecg.Train[0][:m]))
		l.y = append(l.y, zNorm(ecg.Train[1][:m]))
	}
	n.end()
	return l, nil
}

func (l *longSeries) inputs() map[string]int {
	return map[string]int{"selfjoin_n": longN, "abjoin_b": longB, "window": longW, "pair_n_small": longPairLens[0], "pair_n_large": longPairLens[1]}
}

func (l *longSeries) pass(ctx context.Context, i int, sp span) error {
	rec := l.e.rec
	out := &longOut{}
	nt, nb := float64(longN-longW+1), float64(longB-longW+1)

	s := sp.child("profile.selfjoin")
	self, err := selfJoin(ctx, l.eng, l.t, longW)
	s.end()
	rec.add("ops", 1)
	if err != nil {
		rec.add("ops_failed", 1)
		return err
	}
	out.self = self
	rec.add("profile.cells", nt*nt)
	out.motif, out.discord = motifDiscord(self)

	s = sp.child("profile.abjoin")
	ab, err := abJoin(ctx, l.eng, l.t, l.b, longW)
	s.end()
	rec.add("ops", 1)
	if err != nil {
		rec.add("ops_failed", 1)
		return err
	}
	out.ab = ab
	rec.add("profile.cells", nt*nb)

	s = sp.child("subsequence.topk")
	out.top = topK(l.t, l.t[out.motif:out.motif+longW], longTopK)
	s.end()
	rec.add("ops", 1)

	for li, n := range longPairLens {
		vals := make([]float64, len(l.pairs))
		for pi, p := range l.pairs {
			s := sp.child(fmt.Sprintf("%s.%s.pair.n%d", p.Layer, p.Family, n))
			vals[pi] = distance(p.M, l.x[li], l.y[li])
			s.end()
			rec.add("ops", 1)
		}
		out.pairVals = append(out.pairVals, vals)
	}

	if l.first == nil {
		l.first = out
		return nil
	}
	// Every pass computes the same outputs; one that moved is wrong.
	f := l.first
	same := out.motif == f.motif && out.discord == f.discord && len(out.top) == len(f.top)
	for k := 0; same && k < len(out.top); k++ {
		same = out.top[k] == f.top[k]
	}
	for li := range out.pairVals {
		for pi := range out.pairVals[li] {
			same = same && out.pairVals[li][pi] == f.pairVals[li][pi]
		}
	}
	if !same {
		rec.add("ops_failed", 1)
		return fmt.Errorf("pass %d: outputs differ from pass 0", i)
	}
	return nil
}

// motifDiscord reads the motif (smallest profile value) and the discord
// (largest finite value) off a self-join.
func motifDiscord(p *Profile) (motif, discord int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	motif, discord = 0, 0
	for i, v := range p.Values {
		if p.Indices[i] < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo, motif = v, i
		}
		if v > hi {
			hi, discord = v, i
		}
	}
	return motif, discord
}

// check recomputes longChecked rows of each join with a direct distance
// profile (within the FFT tolerance tier), the top-k matches' distances,
// and every elastic pair with the oracle's reference DP.
func (l *longSeries) check(ctx context.Context) int {
	f := l.first
	if f == nil {
		return 1
	}
	wrong := 0
	rows := len(f.self.Values)
	for k := 0; k < longChecked; k++ {
		i := k * rows / longChecked
		q := l.t[i : i+longW]
		if !profileRowOK(f.self, i, distanceProfile(l.t, q), f.self.Exclusion) {
			wrong++
		}
		if !profileRowOK(f.ab, i, distanceProfile(l.b, q), -1) {
			wrong++
		}
	}
	dp := distanceProfile(l.t, l.t[f.motif:f.motif+longW])
	for k, m := range f.top {
		if !agree(m.Distance, dp[m.Offset], tolFFT) || (k > 0 && m.Distance < f.top[k-1].Distance) {
			wrong++
		}
	}
	for li := range longPairLens {
		for pi, p := range l.pairs {
			ref, tol, err := oracleRef(p.M)
			if err != nil {
				wrong++
				continue
			}
			if !agree(f.pairVals[li][pi], ref(l.x[li], l.y[li]), tol) {
				wrong++
			}
		}
	}
	return wrong
}

// profileRowOK reports whether row i of a join holds the smallest distance
// of the direct profile dp outside the exclusion radius excl (-1 for none),
// and whether its claimed neighbor reaches that distance.
func profileRowOK(p *Profile, i int, dp []float64, excl int) bool {
	best := math.Inf(1)
	for j, d := range dp {
		if excl >= 0 && j >= i-excl && j <= i+excl {
			continue
		}
		best = math.Min(best, d)
	}
	j := p.Indices[i]
	return agree(p.Values[i], best, tolFFT) && j >= 0 && j < len(dp) && agree(dp[j], best, tolFFT)
}
