package kernel

import "math"

// GAKLogK runs GAK's recursion on x and y as given and returns log k(x, y)
// with the number of rows its linear-space phase completed (len(x) when
// the whole table stayed in linear space, 0 when the first row already
// fell back to log space).
func GAKLogK(g GAK, x, y []float64) (logK float64, linearRows int) {
	return g.logKRows(x, y, make([]float64, len(x)+1), make([]float64, len(x)+1))
}

// GAKLogSpace runs the log-space GAK recursion alone on x and y as given
// and returns log k(x, y).
func GAKLogSpace(g GAK, x, y []float64) float64 {
	prev, cur := make([]float64, len(x)+1), make([]float64, len(x)+1)
	for j := range prev {
		prev[j] = math.Inf(-1)
	}
	prev[0] = 0
	return gakLogRows(x, y, 1, 2*g.Sigma*g.Sigma, prev, cur)
}

// LogSumExp3 is the log-space route's three-term log-sum-exp.
var LogSumExp3 = logSumExp3

// RaceEnabled reports whether the tests run under the race detector.
const RaceEnabled = raceEnabled
