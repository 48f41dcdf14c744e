package search_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
)

// snapshotFor builds a snapshot materializing every candidate's state.
func snapshotFor(series [][]float64, ms ...measure.Measure) *corpus.Snapshot {
	return buildSnapshot(series, corpus.Options{Measures: ms})
}

// sameSearch reports whether two results agree bitwise: neighbors,
// distance bit patterns, and (with stats) work counters.
func sameSearch(a, b search.Result, stats bool) bool {
	if len(a.Indices) != len(b.Indices) || (stats && a.Stats != b.Stats) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] ||
			math.Float64bits(a.Distances[i]) != math.Float64bits(b.Distances[i]) {
			return false
		}
	}
	return true
}

// TestGridSnapshotMatchesInline is the snapshot exactness property test:
// for every Table-4 grid, the snapshot-backed tuning engine must report
// bit-identical per-candidate neighbors and distances to both the inline
// engine and the naive per-candidate loop. Any contamination of the
// snapshot's shared state (a rebound envelope, a candidate state drifting
// from Prepare) fails here.
func TestGridSnapshotMatchesInline(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 11, Count: 3, MaxLength: 40, MaxTrain: 12, MaxTest: 4,
	})
	stride := 1
	if testing.Short() {
		stride = 4
	}
	for _, g := range eval.Grids() {
		g = eval.Thin(g, stride)
		for _, d := range archive {
			snap := snapshotFor(d.Train, g.Candidates...)
			got := grid(g.Candidates, d.Train, snap)
			want := grid(g.Candidates, d.Train, nil)
			for k, cand := range g.Candidates {
				naive := leaveOneOut(cand, d.Train, snap)
				for i := range want.PerCandidate[k].Indices {
					wi, wd := want.PerCandidate[k].Indices[i], want.PerCandidate[k].Distances[i]
					if got.PerCandidate[k].Indices[i] != wi || got.PerCandidate[k].Distances[i] != wd {
						t.Fatalf("%s on %s: row %d snapshot grid (%d, %v), inline (%d, %v)",
							cand.Name(), d.Name, i,
							got.PerCandidate[k].Indices[i], got.PerCandidate[k].Distances[i], wi, wd)
					}
					if naive.Indices[i] != wi || naive.Distances[i] != wd {
						t.Fatalf("%s on %s: row %d snapshot loo (%d, %v), inline (%d, %v)",
							cand.Name(), d.Name, i, naive.Indices[i], naive.Distances[i], wi, wd)
					}
				}
			}
			// Hits are only owed when the family has state to share:
			// stateless grids (e.g. MSM) legitimately serve nothing.
			hasState := false
			for _, cand := range g.Candidates {
				if _, ok := cand.(measure.Stateful); ok {
					hasState = true
				}
				if _, ok := cand.(measure.LowerBounded); ok {
					hasState = true
				}
			}
			if hasState && snap.Hits().Total() == 0 {
				t.Fatalf("%s on %s: snapshot never served state", g.Name, d.Name)
			}
		}
	}
}

// TestOneNNSnapshotMatchesInline covers the index plan's two operations,
// Index.OneNNCtx and Index.LeaveOneOutCtx, over nil, covering and
// non-covering snapshots for the engine shapes: lower-bounded (DTW, halved
// leave-one-out), plain symmetric (ERP, halved without bounds), stateful
// (SINK, scan leave-one-out; GAK, halved leave-one-out over prepared
// states), and panel plus early abandon
// (Lorentzian). Every route must return bitwise-identical neighbors,
// distances and work counters; only a covering snapshot may serve state.
// Only a pruning halved scan has counters that depend on which worker
// scans which rows (its cutoffs come from the incumbents each worker has
// seen), so those are compared on the single-worker run, where the
// schedule is fixed; every other route's counters are compared on every
// run.
// The other measure.Plan routes are pinned against the same answers: the
// ANN re-rank with a budget covering the corpus (the exact fallback) and
// the row argmin of the exhaustive eval.MatrixCtx.
func TestOneNNSnapshotMatchesInline(t *testing.T) {
	ctx := context.Background()
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 17, Count: 2, MaxLength: 48, MaxTrain: 14, MaxTest: 6,
	})
	procs := []int{1, runtime.GOMAXPROCS(0)}
	defer runtime.GOMAXPROCS(procs[1])
	for _, m := range []measure.Measure{
		elastic.DTW{DeltaPercent: 10},
		elastic.ERP{G: 0},
		kernel.SINK{Gamma: 5},
		kernel.GAK{Sigma: 1},
		lockstep.Lorentzian(),
	} {
		plan := measure.NewPlan(m)
		lb, sm := plan.Bounded(), plan.Prepared()
		scheduleDependent := measure.IsSymmetric(m) && plan.Prunes()
		for _, d := range archive {
			foreignTrain := make([][]float64, len(d.Train))
			for i := range d.Train {
				foreignTrain[i] = append([]float64(nil), d.Train[i]...)
			}
			covering, foreign := snapshotFor(d.Train, m), snapshotFor(foreignTrain, m)
			for _, p := range procs {
				runtime.GOMAXPROCS(p)
				var want, wantL search.Result
				for _, tc := range []struct {
					name string
					snap *corpus.Snapshot
				}{{"nil", nil}, {"covering", covering}, {"non-covering", foreign}} {
					ix, err := search.NewIndexSnapshotCtx(ctx, m, d.Train, tc.snap)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ix.OneNNCtx(ctx, d.Test)
					if err != nil {
						t.Fatal(err)
					}
					gotL, err := ix.LeaveOneOutCtx(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if tc.snap == nil {
						want, wantL = got, gotL
						continue
					}
					if !sameSearch(got, want, true) {
						t.Fatalf("%s on %s, %d procs: %s snapshot 1-NN %+v, inline %+v",
							m.Name(), d.Name, p, tc.name, got, want)
					}
					if !sameSearch(gotL, wantL, p == 1 || !scheduleDependent) {
						t.Fatalf("%s on %s, %d procs: %s snapshot leave-one-out %+v, inline %+v",
							m.Name(), d.Name, p, tc.name, gotL, wantL)
					}
				}
				approx := knnApprox(m, d.Test, d.Train, 1, ann.Config{Candidates: len(d.Train)}, nil)
				if !sameSearch(search.Result{Indices: approx.Indices, Distances: approx.Distances}, want, false) {
					t.Fatalf("%s on %s, %d procs: exact-fallback ANN %v %v, index %v %v",
						m.Name(), d.Name, p, approx.Indices, approx.Distances, want.Indices, want.Distances)
				}
				e, err := eval.MatrixCtx(ctx, m, d.Test, d.Train, nil)
				if err != nil {
					t.Fatal(err)
				}
				rows := search.Result{Indices: eval.Neighbors(e), Distances: make([]float64, len(e))}
				for i, j := range rows.Indices {
					rows.Distances[i] = e[i][j]
				}
				if !sameSearch(rows, want, false) {
					t.Fatalf("%s on %s, %d procs: matrix argmin %v %v, index %v %v",
						m.Name(), d.Name, p, rows.Indices, rows.Distances, want.Indices, want.Distances)
				}
			}
			if served := covering.Hits().Total() > 0; served != (lb || sm) {
				t.Fatalf("%s on %s: covering snapshot served state = %v", m.Name(), d.Name, served)
			}
			if h := foreign.Hits(); h.Total() != 0 {
				t.Fatalf("%s on %s: non-covering snapshot served state: %+v", m.Name(), d.Name, h)
			}
		}
	}
}

// TestGridSnapshotDegenerateInputs reruns the NaN/Inf degenerate-input
// grid check through the snapshot path: domination repair and non-finite
// fallbacks must behave identically when state comes from a snapshot.
func TestGridSnapshotDegenerateInputs(t *testing.T) {
	train := [][]float64{
		{1, 2, 3, 4, 5, 4, 3, 2},
		{math.NaN(), 2, 3, 4, 5, 4, 3, 2},
		{1, 2, math.Inf(1), 4, 5, 4, 3, 2},
		{2, 3, 4, 5, 4, 3, 2, 1},
		{math.Inf(-1), math.NaN(), 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	g := eval.DTWGrid()
	snap := snapshotFor(train, g.Candidates...)
	got := grid(g.Candidates, train, snap)
	want := grid(g.Candidates, train, nil)
	for k, cand := range g.Candidates {
		for i := range want.PerCandidate[k].Indices {
			wi, wd := want.PerCandidate[k].Indices[i], want.PerCandidate[k].Distances[i]
			if got.PerCandidate[k].Indices[i] != wi || got.PerCandidate[k].Distances[i] != wd {
				t.Fatalf("%s: row %d snapshot (%d, %v), inline (%d, %v)", cand.Name(), i,
					got.PerCandidate[k].Indices[i], got.PerCandidate[k].Distances[i], wi, wd)
			}
		}
	}
}

// TestSnapshotFallbacks checks the degradation contract: a nil snapshot
// and one built over different series must both produce inline results
// (and never panic), so callers can thread a snapshot unconditionally.
func TestSnapshotFallbacks(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 23, Count: 1, MaxLength: 32, MaxTrain: 10, MaxTest: 4,
	})
	d := archive[0]
	other := make([][]float64, len(d.Train))
	for i := range d.Train {
		other[i] = append([]float64(nil), d.Train[i]...)
	}
	m := kernel.SINK{Gamma: 5}
	foreign := snapshotFor(other, m)
	want := oneNN(m, d.Test, d.Train, nil)
	for name, snap := range map[string]*corpus.Snapshot{"nil": nil, "foreign": foreign} {
		got := oneNN(m, d.Test, d.Train, snap)
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
				t.Fatalf("%s snapshot: query %d got (%d, %v), want (%d, %v)",
					name, i, got.Indices[i], got.Distances[i], want.Indices[i], want.Distances[i])
			}
		}
	}
	if h := foreign.Hits(); h.Total() != 0 {
		t.Fatalf("foreign snapshot served state: %+v", h)
	}
	g := eval.Thin(eval.DTWGrid(), 7)
	gotG := grid(g.Candidates, d.Train, nil)
	wantG := grid(g.Candidates, d.Train, nil)
	for k := range wantG.PerCandidate {
		for i := range wantG.PerCandidate[k].Indices {
			if gotG.PerCandidate[k].Indices[i] != wantG.PerCandidate[k].Indices[i] {
				t.Fatalf("nil-snapshot grid diverged at cand %d row %d", k, i)
			}
		}
	}
}

// TestGridSnapshotStats checks the PrepShared counter: a snapshot holding
// every candidate's state serves all the states the sweep needs, and an
// inline sweep is served none.
func TestGridSnapshotStats(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 29, Count: 1, MaxLength: 40, MaxTrain: 12, MaxTest: 4,
	})
	d := archive[0]
	g := eval.Thin(eval.SINKGrid(), 4)
	snap := snapshotFor(d.Train, g.Candidates...)
	gr := grid(g.Candidates, d.Train, snap)
	if gr.Stats.PrepTotal == 0 || gr.Stats.PrepShared != gr.Stats.PrepTotal {
		t.Fatalf("snapshot-backed sweep served %d of %d states, want all: %+v",
			gr.Stats.PrepShared, gr.Stats.PrepTotal, gr.Stats)
	}
	inline := grid(g.Candidates, d.Train, nil)
	if inline.Stats.PrepShared != 0 || inline.Stats.PrepTotal != gr.Stats.PrepTotal {
		t.Fatalf("inline sweep: %+v, want %d states, none shared", inline.Stats, gr.Stats.PrepTotal)
	}
}
