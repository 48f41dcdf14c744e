package search_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/search"
)

// cancellingMeasure counts Distance calls and cancels the run's context
// once the count reaches trigger, letting tests observe how much work runs
// after cancellation. With done set (the context's Done channel), calls
// past the trigger block until cancellation is visible, so a worker
// stalled inside cancel() cannot let the others finish the whole run.
type cancellingMeasure struct {
	calls   *atomic.Int64
	trigger int64
	cancel  context.CancelFunc
	done    <-chan struct{}
}

func (c cancellingMeasure) Name() string { return "cancelling" }

func (c cancellingMeasure) Distance(x, y []float64) float64 {
	if n := c.calls.Add(1); n == c.trigger {
		c.cancel()
	} else if c.done != nil && n > c.trigger {
		<-c.done
	}
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func cancelTrain() [][]float64 {
	d := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 3, Count: 1, MaxLength: 24, MaxTrain: 40, MaxTest: 4,
	})[0]
	return d.Train
}

func TestOneNNCtxPreCancelled(t *testing.T) {
	train := cancelTrain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	m := cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}}
	if _, err := search.OneNNCtx(ctx, m, train, train); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d distance calls ran under a pre-cancelled context", n)
	}
}

// TestLeaveOneOutGridCtxCancelsPromptly cancels mid-scan from inside the
// measure itself and asserts the run stops within dispatch-chunk
// granularity: the total distance-call count stays well below the full
// sweep's, and the error is context.Canceled.
func TestLeaveOneOutGridCtxCancelsPromptly(t *testing.T) {
	train := cancelTrain()
	n := int64(len(train))
	full := 3 * n * (n - 1) // three candidates, all ordered pairs each

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	// The candidates share one call counter, so whichever makes the fifth
	// call cancels and every later call waits for it.
	m := cancellingMeasure{calls: &calls, trigger: 5, cancel: cancel, done: ctx.Done()}
	cands := []measure.Measure{m, m, m}
	_, err := search.NewTuneIndex(cands, train, nil).EvaluateCtx(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= full/2 {
		t.Errorf("cancelled grid sweep ran %d of %d distance calls; cancellation is not chunk-prompt", got, full)
	}
}

// TestLeaveOneOutCtxCancelsPromptly is the single-candidate analogue.
func TestLeaveOneOutCtxCancelsPromptly(t *testing.T) {
	train := cancelTrain()
	n := int64(len(train))
	full := n * (n - 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	m := cancellingMeasure{calls: &calls, trigger: 5, cancel: cancel, done: ctx.Done()}
	ix, err := search.NewIndexCtx(ctx, m, train)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.LeaveOneOutCtx(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= full/2 {
		t.Errorf("cancelled leave-one-out ran %d of %d distance calls", got, full)
	}
}

// TestGridCtxUncancelledMatchesPlain pins the uncancelled contract: a grid
// sweep under a live context is bit-identical to plain per-candidate
// leave-one-out searches.
func TestGridCtxUncancelledMatchesPlain(t *testing.T) {
	train := cancelTrain()
	var calls atomic.Int64
	cands := []measure.Measure{
		cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
		measure.New("ed", func(x, y []float64) float64 {
			s := 0.0
			for i := range x {
				d := x[i] - y[i]
				s += d * d
			}
			return math.Sqrt(s)
		}),
	}
	got, err := search.NewTuneIndex(cands, train, nil).EvaluateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for k, cand := range cands {
		w, g := leaveOneOut(cand, train, nil), got.PerCandidate[k]
		for i := range w.Indices {
			if g.Indices[i] != w.Indices[i] || g.Distances[i] != w.Distances[i] {
				t.Fatalf("candidate %d row %d: ctx path (%d, %v) differs from plain (%d, %v)",
					k, i, g.Indices[i], g.Distances[i], w.Indices[i], w.Distances[i])
			}
		}
	}
}
