// Package search implements the pruned exact 1-NN engine behind the
// paper's evaluation: instead of materializing the full test-by-train
// dissimilarity matrix, each query scans the references with a best-so-far
// cutoff, rejecting candidates through the measure's lower-bound cascade
// (measure.LowerBounded), abandoning surviving distance computations early
// (measure.EarlyAbandoning), and reusing per-series state
// (measure.Stateful) — one cascade, resolved once per measure by
// measure.Plan. For exactly symmetric measures the leave-one-out
// variant evaluates each unordered pair once, halving the train-by-train
// work of supervised tuning.
//
// The engine is exact: predicted neighbors — including ties, which resolve
// to the lowest reference index — are identical to exhaustive matrix
// evaluation. Lower bounds only skip candidates that provably cannot beat
// the incumbent, and abandoned computations only certify d >= cutoff.
//
// Each operation has one context-first entry point taking an optional
// *corpus.Snapshot. An Index — built only by NewIndexSnapshotCtx — is the
// plan of exact search: it holds the measure's measure.Plan and the
// per-reference state, adopted from a covering snapshot or built inline,
// and its OneNNCtx and LeaveOneOutCtx methods run the searches. A
// TuneIndex (NewTuneIndex(...).EvaluateCtx) sweeps a whole parameter grid,
// and KNNApproxCtx runs approximate search. Every entry point observes
// cancellation at the dispatch chunk granularity of internal/par and
// returns ctx.Err() together with whatever partial per-query results were
// completed. A snapshot changes where per-series state comes from, never
// what is computed from it: results are bitwise identical with a nil,
// covering or non-covering snapshot.
package search

import (
	"context"
	"math"

	"repro/internal/corpus"
	"repro/internal/measure"
	"repro/internal/par"
)

// Stats counts the work performed by a search. In the symmetric
// leave-one-out path each unordered pair counts once; everywhere else a
// pair is one query-candidate combination.
type Stats struct {
	Pairs    int64 // candidate pairs examined
	LBPruned int64 // pairs rejected by the lower-bound cascade alone
	PairLB   int64 // pairs rejected by a grid sweep's exact pair-matrix bound
	FullDist int64 // full distance computations started (incl. abandoned)
}

func (s *Stats) add(o Stats) {
	s.Pairs += o.Pairs
	s.LBPruned += o.LBPruned
	s.PairLB += o.PairLB
	s.FullDist += o.FullDist
}

// Result is the outcome of a 1-NN or leave-one-out search: per-query nearest
// reference indices (-1 when there are no candidates) and their sanitized
// distances, plus aggregate work counters. When the context-aware variants
// return an error, rows whose chunk never ran hold the zero values (index
// 0, distance 0) — the caller must treat the whole Result as partial.
type Result struct {
	Indices   []int
	Distances []float64
	Stats     Stats
}

// Index is the plan of exact search over one reference set and one
// measure: the measure's capabilities are resolved once (measure.Plan),
// and the per-reference state the cascade needs — lower-bound contexts or
// stateful preparations — is held alongside. An Index is immutable after
// construction and safe for concurrent use through per-goroutine Queriers.
type Index struct {
	plan measure.Plan
	refs [][]float64
	pe   measure.PanelEvaluator
	st   measure.RefState
}

// panelChunk is the number of candidates handed to a PanelEvaluator per
// call in the query scan: large enough to amortize the call and fill the
// engine's 4-lane groups, small enough that the shared best-so-far cutoff
// refreshes frequently.
const panelChunk = 32

// newIndex resolves m's capabilities over refs, without per-reference
// state. A measure that is not LowerBounded but is a PanelEvaluator takes
// the batched panel scan; everything else runs the plan's pair cascade.
func newIndex(m measure.Measure, refs [][]float64) *Index {
	ix := &Index{plan: measure.NewPlan(m), refs: refs}
	if !ix.plan.Bounded() {
		ix.pe, _ = m.(measure.PanelEvaluator)
	}
	return ix
}

// NewIndexCtx is NewIndexSnapshotCtx without a snapshot.
func NewIndexCtx(ctx context.Context, m measure.Measure, refs [][]float64) (*Index, error) {
	return NewIndexSnapshotCtx(ctx, m, refs, nil)
}

// NewIndexSnapshotCtx builds the search plan of refs under m. Per-reference
// state comes from the snapshot when it covers refs and holds state for m;
// otherwise it is computed in parallel. On a non-nil error (cancellation)
// the index is unusable.
func NewIndexSnapshotCtx(ctx context.Context, m measure.Measure, refs [][]float64, snap *corpus.Snapshot) (*Index, error) {
	ix := newIndex(m, refs)
	st, err := ix.plan.RefState(ctx, refs, snap.RefState(m, refs))
	if err != nil {
		return nil, err
	}
	ix.st = st
	return ix, nil
}

// Querier runs queries against an Index, owning the per-worker reusable
// state (the query's bound context and work counters). A Querier is NOT
// safe for concurrent use; create one per goroutine via Index.Querier.
type Querier struct {
	ix   *Index
	qs   measure.State
	pout []float64 // panel output scratch (PanelEvaluator path)
	// Stats accumulates the work performed by this Querier's queries.
	Stats Stats
}

// Querier returns a fresh query handle for the index.
func (ix *Index) Querier() *Querier {
	q := &Querier{ix: ix}
	if len(ix.refs) > 0 {
		q.qs = ix.plan.NewState(len(ix.refs[0]))
	}
	if ix.pe != nil {
		q.pout = make([]float64, panelChunk)
	}
	return q
}

// Query returns the index of the nearest reference to x and its sanitized
// distance, or (-1, +Inf) when the index is empty. Ties resolve to the
// lowest reference index, exactly as exhaustive evaluation does. Steady
// state is allocation-free for LowerBounded measures.
func (q *Querier) Query(x []float64) (best int, dist float64) {
	return q.search(x, -1)
}

// search scans the references, skipping index skip (for leave-one-out).
func (q *Querier) search(x []float64, skip int) (int, float64) {
	ix := q.ix
	best, bestDist := -1, math.Inf(1)
	if len(ix.refs) == 0 {
		return best, bestDist
	}
	if ix.pe != nil {
		return q.searchPanel(x, skip)
	}
	// The plan's cascade under the best-so-far cutoff. A pair that is
	// pruned or abandoned is >= the incumbent, so it fails the strict
	// update; ascending order and strict < reproduce lowest-index
	// tie-breaking.
	qs := ix.plan.Fill(q.qs, x)
	for j, r := range ix.refs {
		if j == skip {
			continue
		}
		q.Stats.Pairs++
		d, o := ix.plan.Pair(x, qs, r, ix.st.At(j), bestDist)
		if o == measure.Pruned {
			q.Stats.LBPruned++
			continue
		}
		q.Stats.FullDist++
		if best == -1 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best, bestDist
}

// searchPanel is search through the batched panel engine: candidates are
// evaluated panelChunk at a time with the best-so-far at chunk entry as
// the shared cutoff. Results stay exact: a non-exact (abandoned) out value
// is >= the chunk cutoff >= the current incumbent, so it fails the strict
// update, while any candidate that could improve the incumbent has true
// distance < the entry cutoff and therefore an exact out value.
func (q *Querier) searchPanel(x []float64, skip int) (int, float64) {
	ix := q.ix
	best, bestDist := -1, math.Inf(1)
	for start := 0; start < len(ix.refs); start += panelChunk {
		end := start + panelChunk
		if end > len(ix.refs) {
			end = len(ix.refs)
		}
		chunk := ix.refs[start:end]
		counted := int64(len(chunk))
		if skip >= start && skip < end {
			counted--
		}
		q.Stats.Pairs += counted
		q.Stats.FullDist += counted
		ok := false
		if best >= 0 {
			ok = ix.pe.PanelDistancesUpTo(x, chunk, bestDist, q.pout)
		} else {
			ok = ix.pe.PanelDistances(x, chunk, q.pout)
		}
		var qs measure.State
		if !ok {
			qs = ix.plan.Fill(q.qs, x)
		}
		for j := start; j < end; j++ {
			if j == skip {
				continue
			}
			var d float64
			if ok {
				d = measure.Sanitize(q.pout[j-start])
			} else {
				// Declined (ragged chunk): per-pair fallback, same results.
				d, _ = ix.plan.Pair(x, qs, ix.refs[j], ix.st.At(j), bestDist)
			}
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
	}
	return best, bestDist
}

// OneNNCtx finds, in parallel, the nearest reference of every query — the
// matrix-free replacement for eval.MatrixCtx + argmin — building the index
// inline. Neighbors are identical to exhaustive evaluation, including
// tie-breaking. A cancelled search stops within one dispatch chunk per
// worker and returns ctx.Err() alongside the partial Result.
func OneNNCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64) (Result, error) {
	ix, err := NewIndexCtx(ctx, m, refs)
	if err != nil {
		return Result{}, err
	}
	return ix.OneNNCtx(ctx, queries)
}

// OneNNCtx finds, in parallel, the nearest indexed reference of every
// query; see the package-level OneNNCtx for the exactness and partial-result
// contracts.
func (ix *Index) OneNNCtx(ctx context.Context, queries [][]float64) (Result, error) {
	return searchAllCtx(ctx, ix, queries, false)
}

// searchAllCtx runs per-query searches across workers, each with its own
// Querier; skipDiag excludes reference i from query i (queries and refs
// must then be the same slice).
func searchAllCtx(ctx context.Context, ix *Index, queries [][]float64, skipDiag bool) (Result, error) {
	n := len(queries)
	res := Result{Indices: make([]int, n), Distances: make([]float64, n)}
	workers := par.Workers(n)
	queriers := make([]*Querier, workers)
	err := par.ForShardCtx(ctx, n, workers, func(w, i int) {
		q := queriers[w]
		if q == nil {
			q = ix.Querier()
			queriers[w] = q
		}
		skip := -1
		if skipDiag {
			skip = i
		}
		res.Indices[i], res.Distances[i] = q.search(queries[i], skip)
	})
	for _, q := range queriers {
		if q != nil {
			res.Stats.add(q.Stats)
		}
	}
	return res, err
}

// LeaveOneOutCtx finds each indexed series' nearest other indexed series —
// the matrix-free criterion of supervised parameter tuning. Exactly
// symmetric measures take the halved path evaluating each unordered pair
// once; results are identical to exhaustive evaluation either way. See the
// package-level OneNNCtx for the partial-result contract.
func (ix *Index) LeaveOneOutCtx(ctx context.Context) (Result, error) {
	if halvedEligible(&ix.plan) {
		return ix.looHalvedCtx(ctx)
	}
	return searchAllCtx(ctx, ix, ix.refs, true)
}

// halvedEligible reports whether leave-one-out evaluation under p takes
// the symmetric pair-halving path: whenever the measure is exactly
// symmetric. The halved scan evaluates each unordered pair once through
// p.Pair, so lower bounds and prepared states serve it as they serve the
// full scan.
func halvedEligible(p *measure.Plan) bool {
	return measure.IsSymmetric(p.Measure())
}

// looHalvedCtx evaluates each unordered pair of indexed series once, the
// index's bound contexts serving both sides of the cascade (they are only
// ever read, so sharing them across workers and calls is safe). Every
// worker keeps private best arrays; pair (i, j) is examined with the cutoff
// max(best_i, best_j), so a pruned or abandoned computation certifies that
// neither row can improve. Within a worker, contributions to any row
// arrive in increasing candidate order (rows are dispatched in increasing
// order and row i's own scan ascends), and the final cross-worker merge
// takes the lexicographic (distance, index) minimum — together this
// reproduces exhaustive first-lowest-index tie-breaking exactly.
func (ix *Index) looHalvedCtx(ctx context.Context) (Result, error) {
	n := len(ix.refs)
	ce := &candEval{plan: &ix.plan, st: ix.st}
	workers := par.Workers(n)
	locals := make([][]*looLocal, workers)
	err := par.ForShardCtx(ctx, n, workers, func(w, i int) {
		if locals[w] == nil {
			locals[w] = []*looLocal{newLooLocal(n, nil)}
		}
		ce.scanHalvedRows(ix.refs, locals[w][0], i, i+1)
	})
	var res Result
	ce.merge(ix.refs, locals, 0, &res)
	return res, err
}
