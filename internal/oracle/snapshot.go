package oracle

import (
	"context"
	"fmt"

	csnap "repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/search"
)

// This file adds the snapshot differential route: every snapshot-optional
// entry point (search.NewIndexSnapshotCtx with Index.OneNNCtx and
// Index.LeaveOneOutCtx, eval.MatrixCtx, search.NewTuneIndex grid tuning)
// must return bitwise identical results with a covering snapshot and with
// none — the snapshot only changes where per-series state comes from,
// never what is computed. Any divergence, including on NaN/Inf-poisoned or
// constant series, is a real bug in the prepared-state layer.

// The engines below run under a background context, which never cancels,
// so their errors are always nil.

func oneNN(m measure.Measure, queries, refs [][]float64, snap *csnap.Snapshot) search.Result {
	ix, _ := search.NewIndexSnapshotCtx(context.Background(), m, refs, snap)
	res, _ := ix.OneNNCtx(context.Background(), queries)
	return res
}

func leaveOneOut(m measure.Measure, train [][]float64, snap *csnap.Snapshot) search.Result {
	ix, _ := search.NewIndexSnapshotCtx(context.Background(), m, train, snap)
	res, _ := ix.LeaveOneOutCtx(context.Background())
	return res
}

func dissimilarities(m measure.Measure, queries, refs [][]float64, snap *csnap.Snapshot) [][]float64 {
	e, _ := eval.MatrixCtx(context.Background(), m, queries, refs, snap)
	return e
}

// CheckSnapshot compares snapshot-backed 1-NN, leave-one-out, and matrix
// evaluation against the inline paths for one measure over one input set.
func CheckSnapshot(r *Report, m measure.Measure, queries, refs [][]float64, input string) {
	name := m.Name()
	var snap *csnap.Snapshot
	if !call(r, name, input, "snapshot-build", func() {
		snap, _ = csnap.BuildCtx(context.Background(), refs, csnap.Options{Measures: []measure.Measure{m}})
	}) {
		return
	}
	call(r, name, input, "snapshot", func() {
		r.Checks++
		got := oneNN(m, queries, refs, snap)
		want := oneNN(m, queries, refs, nil)
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] {
				r.add(name, fmt.Sprintf("%s/onenn/query=%d", input, i), "snapshot",
					"snapshot neighbor %d, inline neighbor %d", got.Indices[i], want.Indices[i])
				continue
			}
			if !sameValue(got.Distances[i], want.Distances[i]) {
				r.add(name, fmt.Sprintf("%s/onenn/query=%d", input, i), "snapshot",
					"snapshot distance %v, inline distance %v", got.Distances[i], want.Distances[i])
			}
		}
	})
	call(r, name, input, "snapshot", func() {
		r.Checks++
		got := leaveOneOut(m, refs, snap)
		want := leaveOneOut(m, refs, nil)
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] {
				r.add(name, fmt.Sprintf("%s/loo/row=%d", input, i), "snapshot",
					"snapshot neighbor %d, inline neighbor %d", got.Indices[i], want.Indices[i])
				continue
			}
			if !sameValue(got.Distances[i], want.Distances[i]) {
				r.add(name, fmt.Sprintf("%s/loo/row=%d", input, i), "snapshot",
					"snapshot distance %v, inline distance %v", got.Distances[i], want.Distances[i])
			}
		}
	})
	call(r, name, input, "snapshot", func() {
		r.Checks++
		got := dissimilarities(m, queries, refs, snap)
		want := dissimilarities(m, queries, refs, nil)
		for i := range want {
			for j := range want[i] {
				if !sameValue(got[i][j], want[i][j]) {
					r.add(name, fmt.Sprintf("%s/matrix/%d,%d", input, i, j), "snapshot",
						"snapshot cell %v, inline cell %v", got[i][j], want[i][j])
				}
			}
		}
	})
}

// CheckSnapshotGrid compares snapshot-backed grid tuning against the
// inline grid engine: per-candidate neighbors and distances must match
// bitwise for every candidate in the grid.
func CheckSnapshotGrid(r *Report, g eval.Grid, train [][]float64, input string) {
	name := g.Name
	var snap *csnap.Snapshot
	if !call(r, name, input, "snapshot-build", func() {
		snap, _ = csnap.BuildCtx(context.Background(), train, csnap.Options{Measures: g.Candidates})
	}) {
		return
	}
	call(r, name, input, "snapshot", func() {
		r.Checks++
		got, _ := search.NewTuneIndex(g.Candidates, train, snap).EvaluateCtx(context.Background())
		want, _ := search.NewTuneIndex(g.Candidates, train, nil).EvaluateCtx(context.Background())
		for c := range want.PerCandidate {
			gi, wi := got.PerCandidate[c].Indices, want.PerCandidate[c].Indices
			gd, wd := got.PerCandidate[c].Distances, want.PerCandidate[c].Distances
			for i := range wi {
				if gi[i] != wi[i] {
					r.add(name, fmt.Sprintf("%s/grid/cand=%d/row=%d", input, c, i), "snapshot",
						"snapshot neighbor %d, inline neighbor %d", gi[i], wi[i])
					continue
				}
				if !sameValue(gd[i], wd[i]) {
					r.add(name, fmt.Sprintf("%s/grid/cand=%d/row=%d", input, c, i), "snapshot",
						"snapshot distance %v, inline distance %v", gd[i], wd[i])
				}
			}
		}
	})
}
