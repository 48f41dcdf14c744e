// Package corpus implements the build-once prepared-state layer that
// separates *corpus build* from *query execute*: an immutable Snapshot
// holds a reference set together with every per-series state the search
// and evaluation engines would otherwise re-derive on each call — one
// measure.RefState per measure, built by its measure.Plan (the Lemire
// envelopes of the DTW cascade, the FFT plans and norms of SINK, ...),
// per-series finiteness flags, and the PAA/SAX words of internal/index.
//
// A Snapshot is built once, in parallel, under a cancellable context, and
// is immutable afterwards: every accessor returns state that is only ever
// read. Every search, eval and ann entry point that prepares per-series
// state takes an optional snapshot and adopts its state through
// Snapshot.RefState and measure.Plan.RefState, producing results bitwise
// identical to inline preparation — the snapshot changes where per-series
// state comes from, never what is computed from it. A nil snapshot (or one
// that does not cover the series at hand) prepares inline through the same
// code.
//
// Snapshots are identified by a content Fingerprint (series count, total
// points, FNV-1a hash over lengths and raw float bits) so the Cache in
// this package can key snapshots and tuned-parameter results by corpus
// content rather than by pointer identity, surviving reloads of the same
// data across experiments and, later, across server requests.
package corpus

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/index"
	"repro/internal/measure"
	"repro/internal/par"
)

// Fingerprint identifies corpus content: cheap structural fields plus an
// order-dependent FNV-1a hash over every series' length and raw float64
// bit patterns. Two corpora with equal fingerprints hold bitwise-equal
// series in the same order (up to hash collision); same-shape corpora with
// different values hash differently, so cache keys built from fingerprints
// do not alias across datasets of identical dimensions.
type Fingerprint struct {
	Count  int    // number of series
	Points int    // total number of values across all series
	Hash   uint64 // FNV-1a over lengths and float bits, in series order
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("%dx%d/%016x", f.Count, f.Points, f.Hash)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvU64 folds one 64-bit word into an FNV-1a state byte by byte.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashSeries hashes one series: its length followed by the raw bit
// pattern of every value (so -0, NaN payloads, and infinities all
// distinguish content exactly as bitwise comparison would).
func hashSeries(x []float64) uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(x)))
	for _, v := range x {
		h = fnvU64(h, math.Float64bits(v))
	}
	return h
}

// FingerprintOf computes the content fingerprint of a corpus. Per-series
// hashes are computed in parallel and folded in series order, so the
// result is deterministic and order-sensitive.
func FingerprintOf(series [][]float64) Fingerprint {
	fp := Fingerprint{Count: len(series)}
	hashes := make([]uint64, len(series))
	par.For(len(series), par.Workers(len(series)), func(i int) {
		hashes[i] = hashSeries(series[i])
	})
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(series)))
	for i, hi := range hashes {
		fp.Points += len(series[i])
		h = fnvU64(h, hi)
	}
	fp.Hash = h
	return fp
}

// SAXSpec selects one SAX vocabulary to precompute: the word of every
// series under the given PAA resolution and alphabet size.
type SAXSpec struct {
	Segments int
	Alphabet int
}

// ANNSpec selects one approximate retrieval index to build into the
// snapshot: the exact re-rank measure and the embed–index–rerank
// configuration. The builder hands the measure's already-materialized
// bound contexts and prepared states (when the measure also appears in
// Options.Measures) to the ANN build, so the exact-side state is shared
// rather than recomputed.
type ANNSpec struct {
	Measure measure.Measure
	Config  ann.Config
}

// Options configures a snapshot build: which measures' prepared states to
// materialize and which index representations to precompute. The zero
// value builds only the fingerprint and finiteness flags.
type Options struct {
	// Measures lists the measures repeated queries will use. For each,
	// BuildCtx materializes the RefState its measure.Plan needs:
	// filled bound contexts for LowerBounded measures, prepared states
	// for Stateful ones. Duplicate names build once.
	Measures []measure.Measure
	// PAASegments lists PAA resolutions to precompute per series.
	PAASegments []int
	// SAX lists SAX vocabularies to precompute per series.
	SAX []SAXSpec
	// ANN lists approximate indexes to build (GRAIL fit + parallel
	// transform + VP-tree over the representations). Duplicate measure
	// names build once.
	ANN []ANNSpec
}

// Hits counts prepared-state lookups served by a snapshot, by section.
// The counters are cumulative over the snapshot's lifetime; each hit is
// one per-series state an engine did not have to recompute.
type Hits struct {
	Prepared int64 // Stateful prepared states served
	Bounds   int64 // filled bound contexts served
}

// Total is the sum over all sections.
func (h Hits) Total() int64 { return h.Prepared + h.Bounds }

// Snapshot is an immutable prepared view of one corpus. All stored state
// is read-only after Build returns: engines must never Fill, Rebind, or
// otherwise mutate snapshot-owned contexts or states (the grid engine's
// envelope arena, which rebinds contexts in place, therefore never adopts
// snapshot-owned ones). The hit counters are the only mutable fields and
// are updated atomically.
type Snapshot struct {
	series [][]float64
	fp     Fingerprint
	finite []bool

	states map[string]measure.RefState // measure name -> per-series state (nil: none needed)
	paa    map[int][][]float64         // segments -> per-series PAA words
	sax    map[SAXSpec][][]int         // spec -> per-series SAX words
	annIdx map[string]*ann.Index       // measure name -> approximate index

	hitPrepared atomic.Int64
	hitBounds   atomic.Int64
}

// BuildCtx builds a snapshot of series, computing every requested section
// in parallel over par.ForCtx. On a non-nil error the snapshot is
// unusable. The series slices are retained, not copied: the caller must
// treat them as frozen for the snapshot's lifetime (the fingerprint
// records the content at build time).
func BuildCtx(ctx context.Context, series [][]float64, opts Options) (*Snapshot, error) {
	n := len(series)
	s := &Snapshot{
		series: series,
		states: map[string]measure.RefState{},
		paa:    map[int][][]float64{},
		sax:    map[SAXSpec][][]int{},
		annIdx: map[string]*ann.Index{},
	}
	s.fp = FingerprintOf(series)
	s.finite = make([]bool, n)
	if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
		s.finite[i] = allFinite(series[i])
	}); err != nil {
		return nil, err
	}

	for _, m := range opts.Measures {
		name := m.Name()
		if _, ok := s.states[name]; ok {
			continue
		}
		plan := measure.NewPlan(m)
		st, err := plan.RefState(ctx, series, nil)
		if err != nil {
			return nil, err
		}
		s.states[name] = st
	}

	for _, seg := range opts.PAASegments {
		if _, ok := s.paa[seg]; ok || n == 0 {
			continue
		}
		words := make([][]float64, n)
		if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
			if len(series[i]) > 0 { // PAA is undefined for empty series
				words[i] = index.PAA(series[i], seg)
			}
		}); err != nil {
			return nil, err
		}
		s.paa[seg] = words
	}
	for _, spec := range opts.SAX {
		if _, ok := s.sax[spec]; ok || n == 0 {
			continue
		}
		sx := index.NewSAX(spec.Segments, spec.Alphabet)
		words := make([][]int, n)
		if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
			if len(series[i]) > 0 {
				words[i] = sx.Symbolize(series[i])
			}
		}); err != nil {
			return nil, err
		}
		s.sax[spec] = words
	}

	// ANN indexes build last so they can adopt the exact-side state the
	// measure loop above just materialized (bound contexts, prepared
	// states) instead of recomputing it.
	for _, spec := range opts.ANN {
		name := spec.Measure.Name()
		if _, ok := s.annIdx[name]; ok {
			continue
		}
		ix, err := ann.BuildCtx(ctx, series, spec.Measure, spec.Config, s.states[name])
		if err != nil {
			return nil, err
		}
		s.annIdx[name] = ix
	}
	return s, nil
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Series returns the snapshot's backing series. Callers must not mutate.
func (s *Snapshot) Series() [][]float64 { return s.series }

// Len returns the number of series.
func (s *Snapshot) Len() int { return len(s.series) }

// Fingerprint returns the content fingerprint computed at build time.
func (s *Snapshot) Fingerprint() Fingerprint { return s.fp }

// Finite returns the per-series all-finite flags. Callers must not mutate.
func (s *Snapshot) Finite() []bool { return s.finite }

// Covers reports whether the snapshot was built over exactly these series
// rows (same backing arrays, same order). Engines consult it before using
// snapshot state, falling back to inline preparation on a mismatch, so a
// stale or foreign snapshot can cost speed but never correctness.
func (s *Snapshot) Covers(series [][]float64) bool {
	if s == nil || len(series) != len(s.series) {
		return false
	}
	for i := range series {
		if len(series[i]) != len(s.series[i]) {
			return false
		}
		if len(series[i]) > 0 && &series[i][0] != &s.series[i][0] {
			return false
		}
	}
	return true
}

// RefState returns the per-series state the snapshot holds for m, for
// measure.Plan.RefState to adopt: filled bound contexts for a
// LowerBounded m, prepared states for a Stateful one. It is nil when s is
// nil, does not cover series, or holds nothing for m (including measures
// that need no state). A non-nil return counts one hit per series. The
// state is read-only: it may be passed to the plan's cascade but never
// refilled or rebound.
func (s *Snapshot) RefState(m measure.Measure, series [][]float64) measure.RefState {
	if !s.Covers(series) {
		return nil
	}
	st := s.states[m.Name()]
	if len(st) > 0 {
		if st[0].Bound != nil {
			s.hitBounds.Add(int64(len(st)))
		} else {
			s.hitPrepared.Add(int64(len(st)))
		}
	}
	return st
}

// ANNIndex returns the snapshot's approximate retrieval index for m, or
// nil when none was requested at build time. The index is immutable;
// callers query it through per-goroutine ann.Queriers.
func (s *Snapshot) ANNIndex(m measure.Measure) *ann.Index {
	if s == nil {
		return nil
	}
	return s.annIdx[m.Name()]
}

// PAA returns the precomputed PAA words at the given resolution, or nil.
func (s *Snapshot) PAA(segments int) [][]float64 {
	if s == nil {
		return nil
	}
	return s.paa[segments]
}

// SAXWords returns the precomputed SAX words for the given vocabulary, or
// nil.
func (s *Snapshot) SAXWords(spec SAXSpec) [][]int {
	if s == nil {
		return nil
	}
	return s.sax[spec]
}

// Hits returns the cumulative prepared-state hit counters.
func (s *Snapshot) Hits() Hits {
	if s == nil {
		return Hits{}
	}
	return Hits{Prepared: s.hitPrepared.Load(), Bounds: s.hitBounds.Load()}
}
