package search_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/measure"
	"repro/internal/search"
)

func approxData(t *testing.T, n, q int) (refs, queries [][]float64) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "approx", Family: dataset.FamilyCBF,
		Length: 64, NumClasses: 3, TrainSize: n, TestSize: q,
		Seed: 11, NoiseSigma: 0.2, ShiftFrac: 0.05,
	})
	return d.Train, d.Test
}

// TestOneNNApproxFallbackMatchesExact pins the engine's fallback
// contract at the search layer: a budget covering the corpus yields
// results identical to the exact pruned engine, query for query.
func TestOneNNApproxFallbackMatchesExact(t *testing.T) {
	refs, queries := approxData(t, 40, 16)
	m := elastic.DTW{DeltaPercent: 10}
	approx := knnApprox(m, queries, refs, 1, ann.Config{Candidates: len(refs), Seed: 1}, nil)
	exact := oneNN(m, queries, refs, nil)
	if approx.Stats.Fallbacks != int64(len(queries)) {
		t.Fatalf("fallbacks %d, want %d", approx.Stats.Fallbacks, len(queries))
	}
	for i := range queries {
		if approx.Indices[i] != exact.Indices[i] || approx.Distances[i] != exact.Distances[i] {
			t.Fatalf("query %d: approx (%d, %g) != exact (%d, %g)",
				i, approx.Indices[i], approx.Distances[i], exact.Indices[i], exact.Distances[i])
		}
	}
}

// TestOneNNApproxNeverBeatsExact checks the defining inequality of the
// approximate engine on the real ANN path: reported distances are exact
// for their index, so they can never undercut the true minimum.
func TestOneNNApproxNeverBeatsExact(t *testing.T) {
	refs, queries := approxData(t, 160, 24)
	m := elastic.DTW{DeltaPercent: 10}
	approx := knnApprox(m, queries, refs, 1, ann.Config{Candidates: 12, Seed: 2}, nil)
	exact := oneNN(m, queries, refs, nil)
	if approx.Stats.Fallbacks != 0 {
		t.Fatalf("budget 12 over n=160 must not fall back (%d did)", approx.Stats.Fallbacks)
	}
	if approx.Stats.EmbedDist == 0 {
		t.Fatal("no embedding-space work recorded")
	}
	for i := range queries {
		if approx.Distances[i] < exact.Distances[i]-1e-9 {
			t.Fatalf("query %d: approximate %g beats exact %g", i, approx.Distances[i], exact.Distances[i])
		}
		if d := m.Distance(queries[i], refs[approx.Indices[i]]); math.Abs(d-approx.Distances[i]) > 1e-9 {
			t.Fatalf("query %d: reported distance %g is not exact (%g)", i, approx.Distances[i], d)
		}
	}
}

// TestKNNApproxShape checks the top-k surface: per-query neighbor lists
// sorted by (distance, index), rank-1 mirrored into Indices/Distances.
func TestKNNApproxShape(t *testing.T) {
	refs, queries := approxData(t, 80, 8)
	m := elastic.DTW{DeltaPercent: 10}
	res := knnApprox(m, queries, refs, 5, ann.Config{Candidates: 16, Seed: 3}, nil)
	if len(res.Neighbors) != len(queries) {
		t.Fatalf("%d neighbor lists for %d queries", len(res.Neighbors), len(queries))
	}
	for i, nbs := range res.Neighbors {
		if len(nbs) != 5 {
			t.Fatalf("query %d: %d neighbors, want 5", i, len(nbs))
		}
		for r := 1; r < len(nbs); r++ {
			if nbs[r-1].Dist > nbs[r].Dist {
				t.Fatalf("query %d: unsorted ranks %g > %g", i, nbs[r-1].Dist, nbs[r].Dist)
			}
		}
		if res.Indices[i] != nbs[0].Index || res.Distances[i] != nbs[0].Dist {
			t.Fatalf("query %d: rank-1 mirror mismatch", i)
		}
	}
}

// TestOneNNApproxSnapshotWarmPath checks the snapshot integration: a
// snapshot holding a fitted ANN index serves it (same answers as the
// cold build), and a snapshot not covering the refs falls back cleanly.
func TestOneNNApproxSnapshotWarmPath(t *testing.T) {
	refs, queries := approxData(t, 96, 12)
	m := elastic.DTW{DeltaPercent: 10}
	cfg := ann.Config{Candidates: 12, Seed: 4}
	snap := buildSnapshot(refs, corpus.Options{ANN: []corpus.ANNSpec{{Measure: m, Config: cfg}}})
	warm := knnApprox(m, queries, refs, 1, cfg, snap)
	cold := knnApprox(m, queries, refs, 1, cfg, nil)
	for i := range queries {
		if warm.Indices[i] != cold.Indices[i] || warm.Distances[i] != cold.Distances[i] {
			t.Fatalf("query %d: warm (%d, %g) != cold (%d, %g)",
				i, warm.Indices[i], warm.Distances[i], cold.Indices[i], cold.Distances[i])
		}
	}
	// Foreign snapshot: same shape, different content — must not be used.
	rng := rand.New(rand.NewSource(5))
	other := make([][]float64, len(refs))
	for i := range other {
		s := make([]float64, 64)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		other[i] = s
	}
	foreign := buildSnapshot(other, corpus.Options{ANN: []corpus.ANNSpec{{Measure: m, Config: cfg}}})
	res := knnApprox(m, queries, refs, 1, cfg, foreign)
	for i := range queries {
		if res.Indices[i] != cold.Indices[i] || res.Distances[i] != cold.Distances[i] {
			t.Fatalf("query %d: foreign-snapshot result diverges from cold build", i)
		}
	}
}

// TestKNNApproxAdoptsSnapshotState checks that a covering snapshot holding
// no ANN index for m still serves its exact-side state to the inline
// build at every k: the bound-context hits rise, and the top-k lists are
// bitwise those of the snapshot-free run.
func TestKNNApproxAdoptsSnapshotState(t *testing.T) {
	refs, queries := approxData(t, 80, 8)
	m := elastic.DTW{DeltaPercent: 10}
	cfg := ann.Config{Candidates: 16, Seed: 6}
	snap := buildSnapshot(refs, corpus.Options{Measures: []measure.Measure{m}})
	before := snap.Hits().Bounds
	warm := knnApprox(m, queries, refs, 5, cfg, snap)
	if snap.Hits().Bounds <= before {
		t.Fatalf("covering snapshot served no bound contexts: %+v", snap.Hits())
	}
	cold := knnApprox(m, queries, refs, 5, cfg, nil)
	for i := range queries {
		w, c := warm.Neighbors[i], cold.Neighbors[i]
		if len(w) != len(c) {
			t.Fatalf("query %d: %d warm neighbors, %d cold", i, len(w), len(c))
		}
		for r := range c {
			if w[r].Index != c[r].Index || math.Float64bits(w[r].Dist) != math.Float64bits(c[r].Dist) {
				t.Fatalf("query %d rank %d: warm %+v, cold %+v", i, r, w[r], c[r])
			}
		}
	}
}

// TestKNNApproxHonorsConfig checks that a covering snapshot's ANN index
// is served only for the configuration it was built with: a snapshot
// built with the default config, queried with a budget covering the
// corpus, must answer through the exact fallback rather than the
// snapshot's default-budget index — and, with the snapshot's bound
// contexts adopted, exactly as the snapshot-free run.
func TestKNNApproxHonorsConfig(t *testing.T) {
	refs, queries := approxData(t, 96, 8)
	m := elastic.DTW{DeltaPercent: 10}
	snap := buildSnapshot(refs, corpus.Options{
		Measures: []measure.Measure{m},
		ANN:      []corpus.ANNSpec{{Measure: m}},
	})
	cfg := ann.Config{Candidates: len(refs)}
	got := knnApprox(m, queries, refs, 1, cfg, snap)
	if got.Stats.Fallbacks != int64(len(queries)) {
		t.Fatalf("%d of %d queries took the exact fallback; the snapshot's default-config index was served",
			got.Stats.Fallbacks, len(queries))
	}
	want := oneNN(m, queries, refs, nil)
	for i := range queries {
		if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
			t.Fatalf("query %d: (%d, %g), exact (%d, %g)",
				i, got.Indices[i], got.Distances[i], want.Indices[i], want.Distances[i])
		}
	}
}

// TestOneNNApproxCancellation checks both the build and the query
// fan-out observe the context.
func TestOneNNApproxCancellation(t *testing.T) {
	refs, queries := approxData(t, 64, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search.KNNApproxCtx(ctx, elastic.DTW{DeltaPercent: 10}, queries, refs, 1, ann.Config{}, nil); err == nil {
		t.Fatal("cancelled approximate search returned nil error")
	}
}

// TestOneNNApproxEmpty covers degenerate inputs at the search layer.
func TestOneNNApproxEmpty(t *testing.T) {
	_, queries := approxData(t, 8, 4)
	res := knnApprox(elastic.DTW{DeltaPercent: 10}, queries, nil, 1, ann.Config{}, nil)
	for i := range queries {
		if res.Indices[i] != -1 || !math.IsInf(res.Distances[i], 1) {
			t.Fatalf("query %d over empty refs = (%d, %g)", i, res.Indices[i], res.Distances[i])
		}
	}
	empty := knnApprox(elastic.DTW{DeltaPercent: 10}, nil, queries, 1, ann.Config{}, nil)
	if len(empty.Indices) != 0 {
		t.Fatalf("no queries produced %d results", len(empty.Indices))
	}
}
