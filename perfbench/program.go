package main

// This file is the benchmark's only door into the program: every call into
// a repro/internal layer goes through one of the functions below, and the
// workloads use nothing else (TestOnlyProgramImportsRepro enforces it).
// When an entry point of the program is renamed or collapsed, this file is
// the one place to update.

import (
	"context"
	"fmt"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/oracle"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/internal/sliding"
	"repro/internal/stats"
	"repro/internal/subsequence"
)

// Types the workloads hold on to. They are the program's own types, so a
// workload never converts results.
type (
	Measure     = measure.Measure
	Dataset     = dataset.Dataset
	Grid        = eval.Grid
	GridStats   = search.GridStats
	SearchStats = search.Stats
	Snapshot    = corpus.Snapshot
	Cache       = corpus.Cache
	CacheKey    = corpus.Key
	Fingerprint = corpus.Fingerprint
	ExactIndex  = search.Index
	ANNQuerier  = ann.Querier
	ANNStats    = ann.Stats
	Neighbor    = ann.Neighbor
	Profile     = profile.Result
	ProfileEng  = profile.Engine
	Match       = subsequence.Match
)

// tolFFT is the oracle's tolerance tier for results computed through an FFT
// or a prepared spectrum; it is the widest tier, used wherever the
// benchmark compares an engine's value against a direct recomputation that
// need not be bitwise equal.
const tolFFT = oracle.TolFFT

// row is one line of a paper table: a measure with its family (which names
// its spans and counters) and the layer that computes it.
type row struct {
	Layer  string // elastic, kernel or sliding
	Family string
	M      Measure
}

// tunedGrid is one supervised (LOOCV) row of a paper table.
type tunedGrid struct {
	Layer string
	G     Grid
}

// elasticGrids are the supervised rows of Table 5 (ERP has no parameter,
// so it appears only as a fixed row).
func elasticGrids() []tunedGrid {
	return []tunedGrid{
		{"elastic", eval.DTWGrid()}, {"elastic", eval.LCSSGrid()}, {"elastic", eval.EDRGrid()},
		{"elastic", eval.MSMGrid()}, {"elastic", eval.TWEGrid()}, {"elastic", eval.SwaleGrid()},
	}
}

// kernelGrids are the supervised rows of Table 6.
func kernelGrids() []tunedGrid {
	var out []tunedGrid
	for _, g := range eval.KernelGrids() {
		out = append(out, tunedGrid{"kernel", g})
	}
	return out
}

// fixedElastic are the eight fixed-parameter rows of Table 5.
func fixedElastic() []row {
	return []row{
		{"elastic", "msm", elastic.MSM{C: 0.5}},
		{"elastic", "twe", elastic.TWE{Lambda: 1, Nu: 0.0001}},
		{"elastic", "dtw", elastic.DTW{DeltaPercent: 100}},
		{"elastic", "dtw", elastic.DTW{DeltaPercent: 10}},
		{"elastic", "edr", elastic.EDR{Epsilon: 0.1}},
		{"elastic", "swale", elastic.Swale{Epsilon: 0.2, P: 5, R: 1}},
		{"elastic", "erp", elastic.ERP{G: 0}},
		{"elastic", "lcss", elastic.LCSS{DeltaPercent: 5, Epsilon: 0.2}},
	}
}

// fixedKernels are the four fixed-parameter rows of Table 6.
func fixedKernels() []row {
	return []row{
		{"kernel", "kdtw", kernel.KDTW{Gamma: 0.125}},
		{"kernel", "gak", kernel.GAK{Sigma: 0.1}},
		{"kernel", "sink", kernel.SINK{Gamma: 5}},
		{"kernel", "rbf", kernel.RBF{Gamma: 2}},
	}
}

// nccc is the baseline both paper tables compare against.
func nccc() row { return row{"sliding", "nccc", sliding.SBD()} }

// Measures of the serving and long-series workloads.
var (
	serveDTW  Measure = elastic.DTW{DeltaPercent: 10}
	serveLor  Measure = lockstep.Lorentzian()
	serveSINK Measure = kernel.SINK{Gamma: 5}
)

// longPairs are the elastic measures timed as single long pairs, each with
// its family name.
func longPairs() []row {
	return []row{
		{"elastic", "dtw", elastic.DTW{DeltaPercent: 10}},
		{"elastic", "msm", elastic.MSM{C: 0.5}},
		{"elastic", "twe", elastic.TWE{Lambda: 1, Nu: 0.0001}},
		{"elastic", "erp", elastic.ERP{G: 0}},
	}
}

// Family is re-exported so workloads can pick generator families.
type Family = dataset.Family

const (
	famECG      = dataset.FamilyECG
	famWalk     = dataset.FamilyWalk
	numFamilies = 8 // generator families, FamilyHarmonic (0) through FamilyWalk
)

// generateArchive draws a synthetic archive of count datasets.
func generateArchive(seed int64, count, maxLength int) []*Dataset {
	return dataset.GenerateArchive(dataset.ArchiveOptions{Seed: seed, Count: count, MaxLength: maxLength})
}

// generateSet draws one synthetic dataset.
func generateSet(seed int64, fam Family, length, classes, train, test int) *Dataset {
	return dataset.Generate(dataset.Config{
		Name: fmt.Sprintf("gen%d", fam), Family: fam, Length: length, NumClasses: classes,
		TrainSize: train, TestSize: test, Seed: seed,
		NoiseSigma: 0.2, ShiftFrac: 0.1, WarpFrac: 0.1, AmpJitter: 0.2,
	})
}

// zNormDataset z-normalizes every series of d.
func zNormDataset(d *Dataset) *Dataset { return eval.Normalize(d, norm.ZScore()) }

// zNorm z-normalizes one series.
func zNorm(x []float64) []float64 { return norm.ZScore().Normalize(x) }

// tune runs LOOCV over a grid on a training split.
func tune(ctx context.Context, g Grid, train [][]float64, labels []int) (Measure, GridStats, error) {
	m, _, st, err := eval.TuneSupervisedDetailedCtx(ctx, g, train, labels)
	return m, st, err
}

// oneNN answers every query with its exact nearest reference.
func oneNN(ctx context.Context, m Measure, queries, refs [][]float64) ([]int, SearchStats, error) {
	res, err := search.OneNNCtx(ctx, m, queries, refs)
	return res.Indices, res.Stats, err
}

// accuracy is the 1-NN accuracy of neighbor indices.
func accuracy(neighbors, queryLabels, refLabels []int) float64 {
	return eval.AccuracyFromNeighbors(neighbors, queryLabels, refLabels)
}

// wilcoxonP is the two-sided Wilcoxon signed-rank p-value of x against y.
func wilcoxonP(x, y []float64) float64 { return stats.Wilcoxon(x, y).PValue }

// distance is the sanitized direct distance, the reference every engine
// answer is checked against.
func distance(m Measure, x, y []float64) float64 { return measure.Sanitize(m.Distance(x, y)) }

// snapshotOptions is what the serving corpus prepares: the state of the
// three query measures and a GRAIL ANN index for SINK.
func snapshotOptions(seed int64) corpus.Options {
	return corpus.Options{
		Measures: []Measure{serveDTW, serveLor, serveSINK},
		ANN:      []corpus.ANNSpec{{Measure: serveSINK, Config: ann.Config{Seed: seed}}},
	}
}

func newCache(capacity int) *Cache { return corpus.NewCache(capacity) }

func fingerprintOf(series [][]float64) Fingerprint { return corpus.FingerprintOf(series) }

// snapshotKey is the cache key of a serving corpus.
func snapshotKey(fp Fingerprint) CacheKey {
	return corpus.Key{FP: fp, Measure: "serve", Band: "snapshot"}
}

// publish builds (or finds) the snapshot of series in the cache.
func publish(ctx context.Context, c *Cache, k CacheKey, series [][]float64, seed int64) (*Snapshot, error) {
	v, err := c.GetOrBuildCtx(ctx, k, func(ctx context.Context) (any, error) {
		return corpus.BuildCtx(ctx, series, snapshotOptions(seed))
	})
	if err != nil {
		return nil, err
	}
	return v.(*Snapshot), nil
}

// fetch reads a published snapshot back from the cache.
func fetch(c *Cache, k CacheKey) (*Snapshot, bool) {
	v, ok := c.Get(k)
	if !ok {
		return nil, false
	}
	return v.(*Snapshot), true
}

// cacheLookups is the cache's hit and lookup counts so far.
func cacheLookups(c *Cache) (hits, lookups int64) {
	st := c.Stats()
	return st.Hits, st.Hits + st.Misses
}

func snapshotHits(s *Snapshot) int64     { return s.Hits().Total() }
func snapshotFP(s *Snapshot) Fingerprint { return s.Fingerprint() }

// exactIndex prepares a snapshot's series for exact 1-NN under m, adopting
// the snapshot's state.
func exactIndex(ctx context.Context, m Measure, s *Snapshot) (*ExactIndex, error) {
	return search.NewIndexSnapshotCtx(ctx, m, s.Series(), s)
}

// exactIndexInline prepares series for exact 1-NN without a snapshot.
func exactIndexInline(ctx context.Context, m Measure, series [][]float64) (*ExactIndex, error) {
	return search.NewIndexCtx(ctx, m, series)
}

// querier is a per-goroutine handle on an exact index.
type querier = search.Querier

func newQuerier(ix *ExactIndex) *querier { return ix.Querier() }

// query answers one exact 1-NN query; the returned stats are this query's
// work only.
func query(q *querier, x []float64) (int, float64, SearchStats) {
	before := q.Stats
	best, d := q.Query(x)
	after := q.Stats
	return best, d, SearchStats{
		Pairs: after.Pairs - before.Pairs, LBPruned: after.LBPruned - before.LBPruned,
		PairLB: after.PairLB - before.PairLB, FullDist: after.FullDist - before.FullDist,
	}
}

// annQuerier is a per-goroutine handle on the snapshot's SINK ANN index.
func annQuerier(s *Snapshot) *ANNQuerier { return s.ANNIndex(serveSINK).NewQuerier() }

func knn(q *ANNQuerier, x []float64, k int) ([]Neighbor, ANNStats) { return q.KNN(x, k) }

func newProfileEngine() *ProfileEng { return profile.New(profile.Options{}) }

func selfJoin(ctx context.Context, e *ProfileEng, t []float64, w int) (*Profile, error) {
	return e.SelfJoin(ctx, t, w)
}

func abJoin(ctx context.Context, e *ProfileEng, a, b []float64, w int) (*Profile, error) {
	return e.ABJoin(ctx, a, b, w)
}

func topK(t, q []float64, k int) []Match { return subsequence.TopK(t, q, k) }

func distanceProfile(t, q []float64) []float64 { return subsequence.DistanceProfile(t, q) }

// oracleRef returns the oracle's reference implementation of m and its
// agreement tolerance.
func oracleRef(m Measure) (func(x, y []float64) float64, float64, error) {
	for _, p := range oracle.Pairs() {
		if p.M.Name() == m.Name() {
			return p.Ref, p.Tol, nil
		}
	}
	return nil, 0, fmt.Errorf("no oracle reference for %s", m.Name())
}
