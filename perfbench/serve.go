package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The serving corpus and its traffic. The corpus is a fixed-size window:
// every ingest appends a batch and retires the oldest one, so every round
// queries and rebuilds the same amount of data.
const (
	serveCorpus   = 2048 // series in the corpus
	serveLength   = 128
	serveBatch    = 32  // series per ingest
	serveRoundQ   = 300 // queries per round, over all clients
	serveIngestQ  = 60  // of those, the ingesting client's share (when there is another)
	serveK        = 10  // neighbors per ANN query
	serveWarm     = 8   // untimed warm-up queries per type
	serveSampleOf = 8   // every serveSampleOf-th query is kept for the check
	serveCheckN   = 16  // queries per type the check recomputes directly
	serveRecallN  = 16  // ANN queries of round 0 that recall@10 is measured on
)

// Query types in the fixed mix, in rotation.
const (
	qDTW = iota
	qLockstep
	qANN
	numQueryTypes
)

var queryTypeName = [numQueryTypes]string{"dtw", "lockstep", "ann"}

// version is one published state of the corpus.
type version struct {
	series [][]float64
	key    CacheKey
	fp     Fingerprint // as the snapshot reports it
	batch  [][]float64 // the series this version's ingest appended
	snap   *Snapshot   // kept for the newest version only
	hits   int64       // snapshot hits already counted
}

// sampled is one query kept for the output check.
type sampled struct {
	round, client, k int
	typ              int
	query            int // index into serve.queries
	version          int
	best             int
	neighbors        []Neighbor
}

type serve struct {
	e       env
	clients int
	cache   *Cache
	// cacheSeen is the cache's hit and lookup counts already recorded.
	cacheSeen [2]int64
	queries   [][]float64
	ingest    [][]float64
	versions  []*version

	mu      sync.Mutex
	samples []sampled
}

func setupServe(ctx context.Context, e env, sp span) (runner, error) {
	s := &serve{e: e, clients: min(2, runtime.NumCPU())}
	g := sp.child("dataset.generate")
	// Sixteen generated sets, every generator family twice, so the corpus
	// mixes many independent class prototypes and how well bounds prune
	// varies little from seed to seed.
	var corpus [][]float64
	const groups = 16
	perGroup := serveCorpus / groups
	for i := 0; i < groups; i++ {
		d := generateSet(e.seed*31+int64(i), Family(i%numFamilies), serveLength, 8, perGroup, perGroup/2)
		corpus = append(corpus, d.Train...)
		half := len(d.Test) / 2
		s.queries = append(s.queries, d.Test[:half]...)
		s.ingest = append(s.ingest, d.Test[half:]...)
	}
	g.end()
	n := sp.child("norm.normalize")
	for _, set := range [][][]float64{corpus, s.queries, s.ingest} {
		for i, x := range set {
			set[i] = zNorm(x)
		}
	}
	n.end()
	s.cache = newCache(2)
	v := &version{series: corpus}
	f := sp.child("corpus.fingerprint")
	v.key = snapshotKey(fingerprintOf(corpus))
	f.end()
	b := sp.child("corpus.build")
	snap, err := publish(ctx, s.cache, v.key, corpus, e.seed)
	b.end()
	if err != nil {
		return nil, err
	}
	v.fp, v.snap = snapshotFP(snap), snap
	s.versions = []*version{v}
	return s, nil
}

func (s *serve) inputs() map[string]int {
	return map[string]int{
		"corpus": serveCorpus, "length": serveLength, "query_pool": len(s.queries),
		"ingest_batch": serveBatch, "queries_per_round": serveRoundQ, "clients": s.clients, "k": serveK,
	}
}

// warm runs a few untimed queries of every type so pools and caches are
// filled before the timed phase.
func (s *serve) warm(ctx context.Context) error {
	snap := s.versions[0].snap
	dtw, err := exactIndex(ctx, serveDTW, snap)
	if err != nil {
		return err
	}
	lor, err := exactIndex(ctx, serveLor, snap)
	if err != nil {
		return err
	}
	dq, lq, aq := newQuerier(dtw), newQuerier(lor), annQuerier(snap)
	for i := 0; i < serveWarm; i++ {
		x := s.queries[i]
		query(dq, x)
		query(lq, x)
		knn(aq, x, serveK)
	}
	return nil
}

// pass is one round: the first client ingests a batch (publishing a new
// snapshot through the cache) and then queries it, while the others query
// the snapshot the round started with. Rounds end at a barrier, so which
// snapshot each query sees is fixed by the round, not by timing.
func (s *serve) pass(ctx context.Context, round int, sp span) error {
	start := time.Now()
	cur := s.versions[len(s.versions)-1]
	next := s.nextVersion(cur, round)
	errs := make([]error, s.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = s.client(ctx, round, c, sp, cur, next)
		}(c)
	}
	wg.Wait()
	s.e.rec.add("serve.round_s", time.Since(start).Seconds())
	hits, lookups := cacheLookups(s.cache)
	s.e.rec.add("corpus.cache_hits", float64(hits-s.cacheSeen[0]))
	s.e.rec.add("corpus.cache_lookups", float64(lookups-s.cacheSeen[1]))
	s.cacheSeen = [2]int64{hits, lookups}
	for _, v := range []*version{cur, next} {
		if v.snap != nil {
			h := snapshotHits(v.snap)
			s.e.rec.add("corpus.snapshot_hits", float64(h-v.hits))
			v.hits = h
		}
	}
	var firstErr error
	for _, err := range errs {
		if err != nil {
			s.e.rec.add("ops_failed", 1)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	cur.snap = nil // the cache owns older snapshots; the check needs only the newest
	s.versions = append(s.versions, next)
	return nil
}

// nextVersion is cur's window shifted by one ingest batch.
func (s *serve) nextVersion(cur *version, round int) *version {
	batch := make([][]float64, serveBatch)
	for i := range batch {
		batch[i] = s.ingest[(round*serveBatch+i)%len(s.ingest)]
	}
	series := make([][]float64, 0, len(cur.series))
	series = append(series, cur.series[serveBatch:]...)
	series = append(series, batch...)
	return &version{series: series, batch: batch}
}

// queriesFor is client c's share of a round's queries.
func (s *serve) queriesFor(c int) int {
	switch {
	case s.clients == 1:
		return serveRoundQ
	case c == 0:
		return serveIngestQ
	default:
		return serveRoundQ - serveIngestQ
	}
}

func (s *serve) client(ctx context.Context, round, c int, sp span, cur, next *version) error {
	rec := s.e.rec
	cs := sp.childReq("client", int64(c)+1)
	defer cs.end()
	f := cs.child("corpus.fetch")
	snap, ok := fetch(s.cache, cur.key)
	f.end()
	rec.add("ops", 1)
	if !ok {
		return fmt.Errorf("round %d: snapshot %s left the cache", round, cur.key.FP)
	}
	ver := len(s.versions) - 1
	if c == 0 {
		var err error
		if snap, err = s.ingestBatch(ctx, round, cs, next); err != nil {
			return err
		}
		ver++
	}
	ix := cs.child("search.index")
	rec.add("ops", 2)
	dtw, err := exactIndex(ctx, serveDTW, snap)
	if err != nil {
		ix.end()
		return err
	}
	lor, err := exactIndex(ctx, serveLor, snap)
	ix.end()
	if err != nil {
		return err
	}
	dq, lq, aq := newQuerier(dtw), newQuerier(lor), annQuerier(snap)
	rng := rand.New(rand.NewSource(s.e.seed*1_000_003 + int64(round)*7919 + int64(c)))
	for k := 0; k < s.queriesFor(c); k++ {
		typ := k % numQueryTypes
		qi := rng.Intn(len(s.queries))
		x := s.queries[qi]
		smp := sampled{round: round, client: c, k: k, typ: typ, query: qi, version: ver}
		req := int64(round)<<32 | int64(c)<<20 | int64(k)
		t := time.Now()
		switch typ {
		case qDTW:
			q := cs.childReq("search.dtw.query", req)
			best, _, st := query(dq, x)
			q.end()
			rec.addSearch("serve.dtw", st)
			rec.add("serve.dtw.queries", 1)
			smp.best = best
		case qLockstep:
			q := cs.childReq("lockstep.lorentzian.query", req)
			best, _, st := query(lq, x)
			q.end()
			rec.addSearch("serve.lockstep", st)
			smp.best = best
		case qANN:
			q := cs.childReq("ann.sink.knn", req)
			nbs, st := knn(aq, x, serveK)
			q.end()
			rec.add("ann.queries", 1)
			rec.add("ann.embed_dist", float64(st.EmbedDist))
			rec.add("ann.exact", float64(st.Exact))
			rec.add("ann.lb_pruned", float64(st.LBPruned))
			if st.Fallback {
				rec.add("ann.fallbacks", 1)
			}
			smp.neighbors = nbs
		}
		rec.sample("lat."+queryTypeName[typ], float64(time.Since(t).Nanoseconds())/1e6)
		rec.add("queries", 1)
		rec.add("ops", 1)
		if k%serveSampleOf == 0 {
			s.mu.Lock()
			s.samples = append(s.samples, smp)
			s.mu.Unlock()
		}
	}
	return nil
}

// ingestBatch publishes next: fingerprint the new window, then build its
// snapshot through the cache.
func (s *serve) ingestBatch(ctx context.Context, round int, cs span, next *version) (*Snapshot, error) {
	rec := s.e.rec
	is := cs.childReq("ingest", int64(round)+1)
	defer is.end()
	t := time.Now()
	f := is.child("corpus.fingerprint")
	next.key = snapshotKey(fingerprintOf(next.series))
	f.end()
	b := is.child("corpus.build")
	snap, err := publish(ctx, s.cache, next.key, next.series, s.e.seed)
	b.end()
	rec.add("ops", 1)
	if err != nil {
		return nil, err
	}
	rec.sample("lat.ingest", float64(time.Since(t).Nanoseconds())/1e6)
	next.fp, next.snap = snapshotFP(snap), snap
	return snap, nil
}

// check recomputes a deterministic sample of the round's answers:
//   - exact dtw and lockstep answers are the argmin of direct distance rows
//     over the version they were asked against;
//   - ANN neighbors carry their exact distances, in (distance, index) order;
//   - every ingested version's snapshot fingerprint is the fingerprint of
//     its series, and the ingested series are found at distance 0 (in the
//     newest snapshot through its own index).
//
// It also measures recall@10 of the first round's sampled ANN queries
// against the exact 10 nearest neighbors.
func (s *serve) check(ctx context.Context) int {
	wrong := 0
	sort.Slice(s.samples, func(i, j int) bool {
		a, b := s.samples[i], s.samples[j]
		if a.round != b.round {
			return a.round < b.round
		}
		if a.client != b.client {
			return a.client < b.client
		}
		return a.k < b.k
	})
	var byType [numQueryTypes][]sampled
	for _, smp := range s.samples {
		byType[smp.typ] = append(byType[smp.typ], smp)
	}
	for typ, all := range byType {
		for _, smp := range spread(all, serveCheckN) {
			if smp.version >= len(s.versions) {
				continue // its round failed, which is already counted
			}
			refs := s.versions[smp.version].series
			x := s.queries[smp.query]
			switch typ {
			case qDTW:
				if !isArgmin(serveDTW, x, refs, smp.best) {
					wrong++
				}
			case qLockstep:
				if !isArgmin(serveLor, x, refs, smp.best) {
					wrong++
				}
			case qANN:
				if !neighborsExact(x, refs, smp.neighbors) {
					wrong++
				}
			}
		}
	}
	recalled := 0
	for _, smp := range byType[qANN] {
		if smp.round != 0 || smp.version >= len(s.versions) || recalled == serveRecallN {
			continue
		}
		recalled++
		found := recallFound(s.queries[smp.query], s.versions[smp.version].series, smp.neighbors)
		s.e.rec.add("recall.found", float64(found))
		s.e.rec.add("recall.total", serveK)
	}
	for vi, v := range s.versions[1:] {
		if fingerprintOf(v.series) != v.fp {
			wrong++
		}
		var ix *ExactIndex
		var err error
		if v.snap != nil {
			ix, err = exactIndex(ctx, serveDTW, v.snap)
		} else {
			ix, err = exactIndexInline(ctx, serveDTW, v.series)
		}
		if err != nil {
			wrong++
			continue
		}
		q := newQuerier(ix)
		for _, x := range v.batch[:4] {
			if _, d, _ := query(q, x); d != 0 {
				wrong++
				fmt.Printf("# version %d: ingested series found at distance %g\n", vi+1, d)
			}
		}
	}
	return wrong
}

// spread picks up to n items evenly across xs.
func spread[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// neighborsExact reports whether every neighbor's distance is its exact
// distance to x and the list is in ascending (distance, index) order.
func neighborsExact(x []float64, refs [][]float64, nbs []Neighbor) bool {
	if len(nbs) != serveK {
		return false
	}
	for i, nb := range nbs {
		if nb.Index < 0 || nb.Index >= len(refs) || !agree(nb.Dist, distance(serveSINK, x, refs[nb.Index]), tolFFT) {
			return false
		}
		if i > 0 {
			p := nbs[i-1]
			if nb.Dist < p.Dist || (nb.Dist == p.Dist && nb.Index <= p.Index) {
				return false
			}
		}
	}
	return true
}

// recallFound counts the neighbors within the exact k-th nearest distance,
// so a neighbor tied with the k-th counts as found.
func recallFound(x []float64, refs [][]float64, nbs []Neighbor) int {
	ds := make([]float64, len(refs))
	for j, r := range refs {
		ds[j] = distance(serveSINK, x, r)
	}
	sort.Float64s(ds)
	kth := ds[min(serveK, len(ds))-1]
	found := 0
	for _, nb := range nbs {
		if nb.Dist <= kth+1e-9*math.Max(1, math.Abs(kth)) {
			found++
		}
	}
	return found
}
