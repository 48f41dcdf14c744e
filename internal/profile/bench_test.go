package profile_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/subsequence"
)

// The profile benchmarks pin the acceptance gate of the matrix-profile
// engine: the tile walk (streamed O(n^2) cross terms, tile-parallel; the
// benchmark names keep their original STOMP label) against the STAMP
// baseline (one FFT scan per row, already hoisted onto a shared plan) on
// the same n=4096 self-join. BenchmarkProfile... names are recorded in
// BENCH_profile.json by `make bench` and gated by `make bench-compare`.

const benchN = 4096
const benchW = 256

func benchSeries(n int) []float64 {
	rng := rand.New(rand.NewSource(31))
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64() * 0.3
		s[i] = v
	}
	return s
}

func BenchmarkProfileSTOMP(b *testing.B) {
	series := benchSeries(benchN)
	eng := profile.New(profile.Options{})
	var res profile.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SelfJoinInto(context.Background(), series, benchW, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileSTOMPSerial(b *testing.B) {
	series := benchSeries(benchN)
	eng := profile.New(profile.Options{Workers: 1})
	var res profile.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SelfJoinInto(context.Background(), series, benchW, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileSTAMP(b *testing.B) {
	series := benchSeries(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subsequence.MatrixProfileSTAMP(series, benchW)
	}
}

func BenchmarkProfileEuclidean(b *testing.B) {
	series := benchSeries(benchN)
	eng := profile.New(profile.Options{Measure: profile.Euclidean()})
	var res profile.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.SelfJoinInto(context.Background(), series, benchW, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileABJoin(b *testing.B) {
	a := benchSeries(benchN)
	tail := benchSeries(benchN / 2)
	eng := profile.New(profile.Options{})
	var res profile.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ABJoinInto(context.Background(), a, tail, benchW, &res); err != nil {
			b.Fatal(err)
		}
	}
}
