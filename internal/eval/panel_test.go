package eval

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lockstep"
	"repro/internal/measure"
)

// noPanel strips the PanelEvaluator (and every other optional) interface
// off a measure, forcing MatrixCtx onto the per-pair reference path.
type noPanel struct{ m measure.Measure }

func (n noPanel) Name() string                    { return n.m.Name() }
func (n noPanel) Distance(x, y []float64) float64 { return n.m.Distance(x, y) }

// TestMatrixPanelBitwise: the PanelEvaluator bulk path of MatrixCtx must be
// bitwise-identical to the per-pair path, NaN sanitization included.
func TestMatrixPanelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	series := func(n, m int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, m)
			for j := range out[i] {
				out[i][j] = rng.NormFloat64()
			}
		}
		return out
	}
	queries, refs := series(11, 50), series(17, 50)
	queries[2][10] = math.NaN()
	refs[5][0] = math.Inf(1)
	measures := []measure.Measure{
		lockstep.Euclidean(), lockstep.Manhattan(), lockstep.Chebyshev(),
		lockstep.Lorentzian(), lockstep.SquaredEuclidean(), lockstep.Cosine(),
	}
	for _, m := range measures {
		if _, ok := m.(measure.PanelEvaluator); !ok {
			t.Fatalf("%s: expected a PanelEvaluator", m.Name())
		}
		got := matrix(m, queries, refs)
		want := matrix(noPanel{m}, queries, refs)
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s [%d][%d]: panel %v != per-pair %v",
						m.Name(), i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}
