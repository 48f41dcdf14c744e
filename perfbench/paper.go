package main

import (
	"context"
	"fmt"
	"math"
)

// The archive slice both paper workloads run on. Every dataset has the
// same shape, so the work of a pass depends on the seed only through the
// data (how well bounds prune), not through dataset sizes.
const (
	sliceDatasets = 4
	sliceLength   = 48
	sliceTrain    = 10
	sliceTest     = 10
	// checkQueries is how many test queries per dataset and row the output
	// check recomputes directly.
	checkQueries = 4
)

// paperTable is one paper table protocol over the archive slice: tuned
// rows, fixed rows and the NCCc baseline, each answered by 1-NN on every
// dataset's test split, then compared to the baseline by Wilcoxon.
type paperTable struct {
	e     env
	data  []*Dataset
	grids []tunedGrid
	fixed []row
	// first holds pass 0's answers: the measure and the neighbor indices
	// of every row on every dataset, in row order. Later passes must
	// reproduce them, and the check recomputes a sample of them directly.
	first [][]answer
}

type answer struct {
	m         Measure
	neighbors []int
}

func setupPaperElastic(ctx context.Context, e env, sp span) (runner, error) {
	return setupPaper(e, sp, elasticGrids(), fixedElastic())
}

func setupPaperKernel(ctx context.Context, e env, sp span) (runner, error) {
	return setupPaper(e, sp, kernelGrids(), fixedKernels())
}

func setupPaper(e env, sp span, grids []tunedGrid, fixed []row) (runner, error) {
	s := sp.child("dataset.generate")
	data, err := archiveSlice(e.seed)
	s.end()
	if err != nil {
		return nil, err
	}
	s = sp.child("norm.normalize")
	for i, d := range data {
		data[i] = zNormDataset(d)
	}
	s.end()
	return &paperTable{e: e, data: data, grids: grids, fixed: fixed}, nil
}

// archiveSlice draws a synthetic archive from seed and keeps the first
// sliceDatasets datasets of full length with enough series, trimmed to the
// slice's split sizes. Labels cycle through the classes, so a prefix of a
// split stays balanced.
func archiveSlice(seed int64) ([]*Dataset, error) {
	var out []*Dataset
	for _, d := range generateArchive(seed, 8*sliceDatasets, sliceLength) {
		if d.Length() != sliceLength || len(d.Train) < sliceTrain || len(d.Test) < sliceTest {
			continue
		}
		d.Train, d.TrainLabels = d.Train[:sliceTrain], d.TrainLabels[:sliceTrain]
		d.Test, d.TestLabels = d.Test[:sliceTest], d.TestLabels[:sliceTest]
		out = append(out, d)
		if len(out) == sliceDatasets {
			return out, nil
		}
	}
	return nil, fmt.Errorf("seed %d: archive has only %d datasets of the slice's shape", seed, len(out))
}

func (p *paperTable) inputs() map[string]int {
	return map[string]int{
		"datasets": len(p.data), "length": sliceLength, "train": sliceTrain, "test": sliceTest,
		"tuned_rows": len(p.grids), "fixed_rows": len(p.fixed),
	}
}

func (p *paperTable) pass(ctx context.Context, i int, sp span) error {
	rec := p.e.rec
	rows := len(p.grids) + len(p.fixed) + 1
	accs := make([][]float64, rows) // per row, per dataset
	for r := range accs {
		accs[r] = make([]float64, len(p.data))
	}
	answers := make([][]answer, len(p.data))
	var firstErr error
	fail := func(err error) {
		rec.add("ops_failed", 1)
		if firstErr == nil {
			firstErr = err
		}
	}
	for di, d := range p.data {
		ds := sp.childReq("dataset", int64(di)+1)
		answers[di] = make([]answer, rows)
		evalRow := func(r int, layer, fam string, m Measure) {
			s := ds.child(layer + "." + fam + ".onenn")
			nb, st, err := oneNN(ctx, m, d.Test, d.Train)
			s.end()
			rec.add("ops", 1)
			if err != nil {
				fail(err)
				return
			}
			rec.addSearch("onenn", st)
			rec.add("dist."+fam, float64(st.FullDist))
			acc := accuracy(nb, d.TestLabels, d.TrainLabels)
			accs[r][di] = acc
			rec.add("acc.sum", acc)
			rec.add("acc.n", 1)
			answers[di][r] = answer{m: m, neighbors: nb}
		}
		for r, g := range p.grids {
			s := ds.child(g.Layer + "." + g.G.Name + ".tune")
			m, st, err := tune(ctx, g.G, d.Train, d.TrainLabels)
			s.end()
			rec.add("ops", 1)
			if err != nil {
				fail(err)
				continue
			}
			recordGrid(rec, g.G.Name, st)
			evalRow(r, g.Layer, g.G.Name, m)
		}
		for r, f := range p.fixed {
			evalRow(len(p.grids)+r, f.Layer, f.Family, f.M)
		}
		base := nccc()
		evalRow(rows-1, base.Layer, base.Family, base.M)
		ds.end()
	}
	s := sp.child("stats.wilcoxon")
	for r := 0; r < rows-1; r++ {
		if pv := wilcoxonP(accs[r], accs[rows-1]); math.IsNaN(pv) {
			fail(fmt.Errorf("row %d: Wilcoxon p-value is NaN", r))
		}
		rec.add("ops", 1)
	}
	s.end()
	if firstErr != nil {
		return firstErr
	}
	if p.first == nil {
		p.first = answers
		return nil
	}
	// Every pass computes the same table; an answer that moved is wrong.
	for di := range answers {
		for r := range answers[di] {
			if !equalInts(answers[di][r].neighbors, p.first[di][r].neighbors) {
				fail(fmt.Errorf("pass %d dataset %d row %d: answers differ from pass 0", i, di, r))
			}
		}
	}
	return firstErr
}

func recordGrid(rec *recorder, fam string, st GridStats) {
	rec.add("grid.pairs", float64(st.Search.Pairs))
	rec.add("grid.lb_pruned", float64(st.Search.LBPruned))
	rec.add("grid.pair_lb", float64(st.Search.PairLB))
	rec.add("grid.full_dist", float64(st.Search.FullDist))
	rec.add("grid.warm.pairs", float64(st.WarmSearch.Pairs))
	rec.add("grid.warm.lb_pruned", float64(st.WarmSearch.LBPruned))
	rec.add("grid.warm.pair_lb", float64(st.WarmSearch.PairLB))
	rec.add("grid.repaired", float64(st.Repaired))
	rec.add("grid.prep_shared", float64(st.PrepShared))
	rec.add("grid.prep_total", float64(st.PrepTotal))
	rec.add("dist."+fam, float64(st.Search.FullDist))
}

// check recomputes, for the first checkQueries test queries of every
// dataset and row, the direct distance row to the training split and
// requires pass 0's neighbor to be its argmin (ties to the lowest index).
// A neighbor whose distance equals the argmin's within the FFT tolerance
// tier is a near-tie, not an error: prepared and direct paths of the
// spectral and log-space kernels need not agree to the last bit.
func (p *paperTable) check(ctx context.Context) int {
	if p.first == nil {
		return 1
	}
	wrong := 0
	for di, d := range p.data {
		for _, a := range p.first[di] {
			if a.m == nil {
				wrong++
				continue
			}
			for q := 0; q < checkQueries && q < len(d.Test); q++ {
				if !isArgmin(a.m, d.Test[q], d.Train, a.neighbors[q]) {
					wrong++
				}
			}
		}
	}
	return wrong
}

// isArgmin reports whether got is the lowest-index nearest reference of x,
// or ties with it within the FFT tolerance tier.
func isArgmin(m Measure, x []float64, refs [][]float64, got int) bool {
	best, bestD := -1, math.Inf(1)
	var gotD float64
	for j, r := range refs {
		d := distance(m, x, r)
		if best == -1 || d < bestD {
			best, bestD = j, d
		}
		if j == got {
			gotD = d
		}
	}
	if got == best {
		return true
	}
	return got >= 0 && got < len(refs) && agree(gotD, bestD, tolFFT)
}

// agree is the oracle's relative agreement rule.
func agree(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
