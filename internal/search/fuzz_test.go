package search_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
)

// fuzzSeries decodes a fuzz payload into count equal-length series. An
// even mode byte reads raw little-endian float64 bit patterns, so NaN
// payloads, infinities, signed zeros and subnormals all occur; an odd one
// reads one small value per byte (ties and constant series are then
// common), with 127, 126 and 125 standing for NaN, +Inf and -Inf. Values
// past the end of the payload are 0, so short payloads yield constant
// series, and length 0 yields empty ones.
func fuzzSeries(data []byte, count, length int) [][]float64 {
	raw := len(data) > 0 && data[0]%2 == 0
	if len(data) > 0 {
		data = data[1:]
	}
	next := func() float64 {
		if raw {
			var b [8]byte
			copy(b[:], data)
			data = data[min(8, len(data)):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		if len(data) == 0 {
			return 0
		}
		v := int8(data[0])
		data = data[1:]
		switch v {
		case 127:
			return math.NaN()
		case 126:
			return math.Inf(1)
		case 125:
			return math.Inf(-1)
		}
		return float64(v) / 8
	}
	set := make([][]float64, count)
	for i := range set {
		set[i] = make([]float64, length)
		for j := range set[i] {
			set[i][j] = next()
		}
	}
	return set
}

// FuzzPlanRoutesAgree checks the exact search index against brute-force
// Distance argmin (lowest index on ties) on arbitrary payloads, for one
// measure per measure.Plan route: DTW (lower bounds and early abandon,
// halved leave-one-out), ERP (plain, halved), SINK (prepared states, scan),
// GAK (prepared states, halved) and Lorentzian (panel and early abandon). Both 1-NN of two extra query
// series and leave-one-out over the references must agree bitwise.
func FuzzPlanRoutesAgree(f *testing.F) {
	f.Add(uint8(5), uint8(8), []byte{1, 8, 16, 24, 127, 0, 8, 126, 200, 16, 8, 125})
	f.Add(uint8(3), uint8(0), []byte{})
	f.Add(uint8(4), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, count, length uint8, data []byte) {
		n := 1 + int(count)%8
		set := fuzzSeries(data, n+2, int(length)%17)
		refs, queries := set[:n], set[n:]
		for _, m := range []measure.Measure{
			elastic.DTW{DeltaPercent: 10},
			elastic.ERP{G: 0},
			kernel.SINK{Gamma: 5},
			kernel.GAK{Sigma: 1},
			lockstep.Lorentzian(),
		} {
			res := oneNN(m, queries, refs, nil)
			for i, q := range queries {
				wi, wd := brute(m, q, refs, -1)
				if res.Indices[i] != wi || math.Float64bits(res.Distances[i]) != math.Float64bits(wd) {
					t.Fatalf("%s: query %d index (%d, %v), brute force (%d, %v)",
						m.Name(), i, res.Indices[i], res.Distances[i], wi, wd)
				}
			}
			loo := leaveOneOut(m, refs, nil)
			for i, r := range refs {
				wi, wd := brute(m, r, refs, i)
				if loo.Indices[i] != wi || math.Float64bits(loo.Distances[i]) != math.Float64bits(wd) {
					t.Fatalf("%s: leave-one-out row %d index (%d, %v), brute force (%d, %v)",
						m.Name(), i, loo.Indices[i], loo.Distances[i], wi, wd)
				}
			}
		}
	})
}
