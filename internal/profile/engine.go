package profile

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/par"
)

// DefaultBlockRows is the default tile edge. Small tiles pay more O(w)
// diagonal seeds per streamed cell; large ones coarsen cancellation and
// load balance. On a 2-vCPU Xeon (go1.24, two workers) 1024 was fastest
// at n = 4096, w = 256 and within noise of 2048 at n = 16384, w = 128;
// 512 was 20-40% slower on both.
const DefaultBlockRows = 1024

// Options configures an Engine.
type Options struct {
	// Measure selects the profile distance; nil means ZNormEuclidean().
	Measure Measure
	// Workers caps dispatch parallelism; 0 means par.Workers over the
	// tile count. 1 pins the serial path (allocation-free warm).
	Workers int
	// BlockRows overrides DefaultBlockRows as the tile edge. Results are
	// identical across worker counts and schedules for a given edge; the
	// edge moves where diagonals are seeded, so values depend on it only
	// within the streaming tolerance.
	BlockRows int
	// Anytime dispatches row blocks in a deterministic shuffled order, so
	// a cancelled run's completed rows spread across the whole profile
	// instead of covering a prefix.
	Anytime bool
	// Progress, when non-nil, is called once per finished row block with
	// the total finished row count; calls are serialized and totals
	// increase. Callers bridge this to run-core task events.
	Progress func(doneRows, totalRows int)
}

// Result is one computed (or partially computed) profile join.
type Result struct {
	// Values[i] is the smallest distance from window i of the query
	// series to any admissible window of the target (+Inf when none —
	// every candidate excluded or masked), and Indices[i] the argmin
	// window offset (-1 when none); ties go to the lowest offset. Rows a
	// cancelled run did not finish keep +Inf/-1 with Done[i] false.
	Values  []float64
	Indices []int
	// Done marks rows whose Values/Indices entries are final; completed
	// rows of a cancelled run are bitwise identical to the full join's.
	Done   []bool
	Window int
	// SelfJoin records whether the join was a self-join, and Exclusion
	// the applied trivial-match exclusion radius (0 for AB-joins).
	SelfJoin  bool
	Exclusion int
	// Completed is the fraction of rows finished before return: 1 for a
	// full run, in [0, 1) after a cancellation.
	Completed float64
}

// anytimeSeed fixes the row-block permutation of anytime mode, keeping
// approximate runs deterministic for a given join size.
const anytimeSeed = 0x5706

// tile is row block rb of the query against column block cb of the target.
type tile struct{ rb, cb int32 }

// Engine computes matrix-profile joins, reusing per-window tables, the
// tile schedule and per-worker scratch across calls so warm joins of the
// same shape allocate nothing. An Engine is not safe for concurrent use;
// each concurrent join needs its own.
type Engine struct {
	opts    Options
	ta, tb  tables
	tiles   []tile
	left    []int // per row block: tiles still to finish
	order   []int
	queued  []bool
	scratch []*worker

	// The current join, read by the tile walkers.
	a, b                *tables
	w, rows, cols, excl int
	self                bool
	done                <-chan struct{}
	mu                  sync.Mutex
	doneRows            int
}

// worker is one dispatch worker's scratch: its best (score, column) per
// row, merged across workers when the join ends, plus one tile's
// diagonal stream and column maxima.
type worker struct {
	best, cov, colBest []float64
	idx, colIdx        []int
	row                rowScan
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Measure == nil {
		opts.Measure = ZNormEuclidean()
	}
	if opts.BlockRows <= 0 {
		opts.BlockRows = DefaultBlockRows
	}
	return &Engine{opts: opts}
}

// SelfJoin computes the self-join matrix profile of t at window w: for
// every window, the distance to its nearest neighbor outside the
// trivial-match exclusion zone (radius max(1, w/2)). On cancellation the
// partial Result is still returned alongside the context error.
func (e *Engine) SelfJoin(ctx context.Context, t []float64, w int) (*Result, error) {
	res := &Result{}
	err := e.SelfJoinInto(ctx, t, w, res)
	return res, err
}

// SelfJoinInto is SelfJoin writing into a caller-owned Result whose
// backing slices are reused, so warm repeated joins allocate nothing.
func (e *Engine) SelfJoinInto(ctx context.Context, t []float64, w int, res *Result) error {
	return e.join(ctx, t, t, w, true, res)
}

// ABJoin computes the AB-join profile: for every window of a, the
// distance to its nearest window of b, with no exclusion zone (a and b
// are distinct series, so no match is trivial).
func (e *Engine) ABJoin(ctx context.Context, a, b []float64, w int) (*Result, error) {
	res := &Result{}
	err := e.ABJoinInto(ctx, a, b, w, res)
	return res, err
}

// ABJoinInto is ABJoin writing into a caller-owned Result.
func (e *Engine) ABJoinInto(ctx context.Context, a, b []float64, w int, res *Result) error {
	return e.join(ctx, a, b, w, false, res)
}

// SelfJoin is the package-level convenience over a throwaway engine.
func SelfJoin(ctx context.Context, t []float64, w int, opts Options) (*Result, error) {
	return New(opts).SelfJoin(ctx, t, w)
}

// ABJoin is the package-level convenience over a throwaway engine.
func ABJoin(ctx context.Context, a, b []float64, w int, opts Options) (*Result, error) {
	return New(opts).ABJoin(ctx, a, b, w)
}

func (e *Engine) join(ctx context.Context, a, b []float64, w int, self bool, res *Result) error {
	if w < 2 {
		panic(fmt.Sprintf("profile: window %d < 2", w))
	}
	if w > len(a) || w > len(b) {
		panic(fmt.Sprintf("profile: window %d out of range for series lengths %d and %d",
			w, len(a), len(b)))
	}
	m, edge := e.opts.Measure, e.opts.BlockRows
	rows, cols := len(a)-w+1, len(b)-w+1
	excl := 0
	if self {
		excl = max(1, w/2)
	}
	res.Values, res.Indices, res.Done = resize(res.Values, rows), resize(res.Indices, rows), resize(res.Done, rows)
	for i := range res.Values {
		res.Values[i], res.Indices[i], res.Done[i] = math.Inf(1), -1, false
	}
	res.Window, res.SelfJoin, res.Exclusion, res.Completed = w, self, excl, 0
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}

	m.fill(&e.ta, a, w)
	e.a, e.b = &e.ta, &e.ta
	if !self {
		m.fill(&e.tb, b, w)
		e.b = &e.tb
	}
	e.w, e.rows, e.cols, e.excl, e.self = w, rows, cols, excl, self
	e.done, e.doneRows = nil, 0
	if ctx != nil {
		e.done = ctx.Done()
	}
	e.schedule()

	workers := e.opts.Workers
	if workers <= 0 {
		workers = par.Workers(len(e.tiles))
	}
	workers = min(workers, len(e.tiles))
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, &worker{})
	}
	for _, ws := range e.scratch[:workers] {
		ws.best, ws.idx = resize(ws.best, rows), resize(ws.idx, rows)
		for i := range ws.best {
			ws.best[i], ws.idx[i] = math.Inf(-1), -1
		}
		ws.cov = resize(ws.cov, 2*edge)
		ws.colBest, ws.colIdx = resize(ws.colBest, edge), resize(ws.colIdx, edge)
	}

	var err error
	if workers <= 1 {
		// Inline dispatch: the parallel path's tile order and arithmetic
		// without the worker closure, so warm serial joins allocate nothing.
		for _, tl := range e.tiles {
			if e.cancelled() {
				break
			}
			e.runTile(e.scratch[0], tl)
		}
		if ctx != nil {
			err = ctx.Err()
		}
	} else {
		err = par.ForShardCtx(ctx, len(e.tiles), workers, func(worker, k int) {
			e.runTile(e.scratch[worker], e.tiles[k])
		})
	}

	// Merge the workers' maxima of every finished row block under the
	// walk's own rule, so the result does not depend on who walked what.
	completed := 0
	for rb, left := range e.left {
		if left != 0 {
			continue
		}
		for i := rb * edge; i < min((rb+1)*edge, rows); i++ {
			best, bj := math.Inf(-1), -1
			for _, ws := range e.scratch[:workers] {
				if better(ws.best[i], ws.idx[i], best, bj) {
					best, bj = ws.best[i], ws.idx[i]
				}
			}
			if bj >= 0 {
				res.Values[i], res.Indices[i] = m.distance(best, w), bj
			}
			res.Done[i] = true
			completed++
		}
	}
	res.Completed = float64(completed) / float64(rows)
	return err
}

// better reports whether score s at index j beats the incumbent (best,
// bj): a higher score, or an equal one at a lower index. NaN never wins.
func better(s float64, j int, best float64, bj int) bool {
	return s > best || (s == best && j >= 0 && j < bj)
}

// schedule lists the tiles in dispatch order and counts, per row block,
// the tiles that must finish before its rows are final: for a self-join
// the tiles (r, b), r < b, and (b, c), c >= b, of the upper triangle (even
// ones the exclusion zone empties); for an AB-join the tiles (b, c). In
// order, tiles go row-block-major, so finished rows form a prefix; in
// anytime mode, row blocks come in a fixed shuffled order, each bringing
// its tiles not yet queued.
func (e *Engine) schedule() {
	edge := e.opts.BlockRows
	rowBlocks, colBlocks := (e.rows+edge-1)/edge, (e.cols+edge-1)/edge
	e.left, e.order, e.queued = resize(e.left, rowBlocks), resize(e.order, rowBlocks), resize(e.queued, rowBlocks)
	for rb := range e.order {
		e.order[rb], e.queued[rb] = rb, false
	}
	if e.opts.Anytime {
		rng := rand.New(rand.NewSource(anytimeSeed))
		rng.Shuffle(rowBlocks, func(i, j int) { e.order[i], e.order[j] = e.order[j], e.order[i] })
	}
	e.tiles = e.tiles[:0]
	for _, rb := range e.order {
		e.queued[rb] = true
		if !e.self {
			for cb := 0; cb < colBlocks; cb++ {
				e.tiles = append(e.tiles, tile{int32(rb), int32(cb)})
			}
			e.left[rb] = colBlocks
			continue
		}
		e.left[rb] = rowBlocks
		for ob := 0; ob < rowBlocks; ob++ {
			if ob == rb || !e.queued[ob] {
				e.tiles = append(e.tiles, tile{int32(min(rb, ob)), int32(max(rb, ob))})
			}
		}
	}
}

func (e *Engine) cancelled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// runTile walks one tile row by row over the columns j with j - i > excl
// (self-join) or all of them (AB-join). cov is indexed by diagonal, so a
// cell advances in place from the one above-left; the top row and left
// column seed their diagonals. An interrupted tile (cancellation is seen
// between rows) never counts as finished, so its partial maxima go unread.
func (e *Engine) runTile(ws *worker, tl tile) {
	edge, m := e.opts.BlockRows, e.opts.Measure
	r0, c0 := int(tl.rb)*edge, int(tl.cb)*edge
	r1, width := min(r0+edge, e.rows), min(c0+edge, e.cols)-c0
	s := &ws.row
	*s = rowScan{a: e.a, b: e.b, w: e.w}
	for t := 0; e.self && t < width; t++ {
		ws.colBest[t], ws.colIdx[t] = math.Inf(-1), -1
	}
	for i := r0; i < r1; i++ {
		if e.cancelled() {
			return
		}
		lo := 0
		if e.self {
			lo = max(0, i+e.excl+1-c0)
		}
		if lo >= width {
			break // later rows start even further right
		}
		// Cell (i, c0+t) sits at diagonal slot t + r1-1-i.
		s.cov = ws.cov[r1-1-i+lo : r1-1-i+width]
		s.i, s.j0, s.from = i, c0+lo, 0
		switch {
		case i == r0:
			s.from = len(s.cov)
		case lo == 0:
			s.from = 1
		}
		for t := 0; t < s.from; t++ {
			s.cov[t] = m.seed(e.a, e.b, i, s.j0+t, e.w)
		}
		s.rmax, s.rarg = math.Inf(-1), -1
		if e.self {
			s.colBest, s.colIdx = ws.colBest[lo:width], ws.colIdx[lo:width]
		}
		m.scan(s)
		if better(s.rmax, s.rarg, ws.best[i], ws.idx[i]) {
			ws.best[i], ws.idx[i] = s.rmax, s.rarg
		}
	}
	for t := 0; e.self && t < width; t++ {
		if j := c0 + t; better(ws.colBest[t], ws.colIdx[t], ws.best[j], ws.idx[j]) {
			ws.best[j], ws.idx[j] = ws.colBest[t], ws.colIdx[t]
		}
	}

	// Retire the tile from its blocks' counts.
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, rb := range [2]int{int(tl.rb), int(tl.cb)} {
		if k == 1 && (!e.self || tl.cb == tl.rb) {
			break
		}
		if e.left[rb]--; e.left[rb] == 0 {
			e.doneRows += min((rb+1)*edge, e.rows) - rb*edge
			if e.opts.Progress != nil {
				e.opts.Progress(e.doneRows, e.rows)
			}
		}
	}
}
