package main

import (
	"runtime"
	"strings"
)

// perLayer lists the traced run's metrics. Every workload reports every
// one; a layer the workload does not reach reads 0. Times are per pass
// (per round on search-serve) unless the name says per call; counts are
// per pass unless the name says per query.
var perLayer = []metricSpec{
	{"dataset.generate_s", "s", "lower"},
	{"norm.normalize_s", "s", "lower"},
	{"corpus.build_s", "s", "lower"},
	{"corpus.fingerprint_s", "s", "lower"},
	{"corpus.snapshot_hits_per_query", "count", "higher"},
	{"corpus.cache_hit_rate", "ratio", "higher"},
	{"eval.tune_s.dtw", "s", "lower"},
	{"eval.tune_s.lcss", "s", "lower"},
	{"eval.tune_s.edr", "s", "lower"},
	{"eval.tune_s.msm", "s", "lower"},
	{"eval.tune_s.twe", "s", "lower"},
	{"eval.tune_s.swale", "s", "lower"},
	{"eval.tune_s.kdtw", "s", "lower"},
	{"eval.tune_s.gak", "s", "lower"},
	{"eval.tune_s.sink", "s", "lower"},
	{"eval.tune_s.rbf", "s", "lower"},
	{"eval.mean_accuracy", "ratio", "higher"},
	{"search.grid.pairs", "count", "lower"},
	{"search.grid.lb_pruned", "count", "higher"},
	{"search.grid.pair_lb", "count", "higher"},
	{"search.grid.full_dist", "count", "lower"},
	{"search.grid.prune_rate", "ratio", "higher"},
	{"search.grid.warm_prune_rate", "ratio", "higher"},
	{"search.grid.repaired", "count", "lower"},
	{"search.grid.prep_shared_rate", "ratio", "higher"},
	{"search.onenn_s", "s", "lower"},
	{"search.onenn.prune_rate", "ratio", "higher"},
	{"search.dtw.full_dist_per_query", "count", "lower"},
	{"search.dtw.prune_rate", "ratio", "higher"},
	{"elastic.ns_per_dist.dtw", "ns", "lower"},
	{"elastic.ns_per_dist.lcss", "ns", "lower"},
	{"elastic.ns_per_dist.edr", "ns", "lower"},
	{"elastic.ns_per_dist.msm", "ns", "lower"},
	{"elastic.ns_per_dist.twe", "ns", "lower"},
	{"elastic.ns_per_dist.swale", "ns", "lower"},
	{"elastic.ns_per_dist.erp", "ns", "lower"},
	{"elastic.pair_ms.dtw.n1024", "ms", "lower"},
	{"elastic.pair_ms.dtw.n4096", "ms", "lower"},
	{"elastic.pair_ms.msm.n1024", "ms", "lower"},
	{"elastic.pair_ms.msm.n4096", "ms", "lower"},
	{"elastic.pair_ms.twe.n1024", "ms", "lower"},
	{"elastic.pair_ms.twe.n4096", "ms", "lower"},
	{"elastic.pair_ms.erp.n1024", "ms", "lower"},
	{"elastic.pair_ms.erp.n4096", "ms", "lower"},
	{"elastic.self_share", "ratio", "lower"},
	{"kernel.ns_per_dist.gak", "ns", "lower"},
	{"kernel.ns_per_dist.kdtw", "ns", "lower"},
	{"kernel.ns_per_dist.sink", "ns", "lower"},
	{"kernel.ns_per_dist.rbf", "ns", "lower"},
	{"kernel.self_share", "ratio", "lower"},
	{"kernel.gak.self_share", "ratio", "lower"},
	{"sliding.nccc_s", "s", "lower"},
	{"lockstep.ns_per_pair", "ns", "lower"},
	{"ann.embed_dist_per_query", "count", "lower"},
	{"ann.exact_per_query", "count", "lower"},
	{"ann.lb_pruned_per_query", "count", "higher"},
	{"ann.fallback_rate", "ratio", "lower"},
	{"profile.selfjoin_s", "s", "lower"},
	{"profile.abjoin_s", "s", "lower"},
	{"profile.ns_per_cell", "ns", "lower"},
	{"subsequence.topk_s", "s", "lower"},
	{"stats.wilcoxon_s", "s", "lower"},
	{"par.cpu_util", "ratio", "higher"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.mallocs", "count", "lower"},
	{"dtw_p50_ms", "ms", "lower"},
	{"dtw_p99_ms", "ms", "lower"},
	{"lockstep_p50_ms", "ms", "lower"},
	{"lockstep_p99_ms", "ms", "lower"},
	{"ann_p50_ms", "ms", "lower"},
	{"ann_p99_ms", "ms", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"recall_at_10", "ratio", "higher"},
	{"error_rate", "ratio", "lower"},
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// Measure families the paper tables tune, by layer.
var (
	elasticFamilies = []string{"dtw", "lcss", "edr", "msm", "twe", "swale", "erp"}
	kernelFamilies  = []string{"gak", "kdtw", "sink", "rbf"}
)

// layerMetrics derives the per-layer metrics from the spans of the traced
// passes and the counters of all passes. Work per pass is fixed, so a
// counter per pass pairs with a span time per traced pass.
func layerMetrics(tr *tracer, rec *recorder, ph phase, errorRate float64) map[string]float64 {
	tot := tr.totals()
	m := make(map[string]float64)
	traced := float64(max(ph.traced, 1))
	passes := float64(max(ph.passes, 1))
	perPass := func(name string) float64 { return rec.count(name) / passes }
	durPerPass := func(name string) float64 { return tot[name].Dur.Seconds() / traced }
	selfWith := func(prefix string) float64 {
		var s float64
		for n, t := range tot {
			if strings.HasPrefix(n, prefix) {
				s += t.Self.Seconds()
			}
		}
		return s / traced
	}
	perCall := func(name string) float64 { return ratio(tot[name].Dur.Seconds(), float64(tot[name].N)) }

	m["dataset.generate_s"] = perCall("dataset.generate")
	m["norm.normalize_s"] = perCall("norm.normalize")
	m["corpus.build_s"] = perCall("corpus.build")
	m["corpus.fingerprint_s"] = perCall("corpus.fingerprint")
	queries := rec.count("queries")
	m["corpus.snapshot_hits_per_query"] = ratio(rec.count("corpus.snapshot_hits"), queries)
	m["corpus.cache_hit_rate"] = ratio(rec.count("corpus.cache_hits"), rec.count("corpus.cache_lookups"))

	for _, g := range []string{"dtw", "lcss", "edr", "msm", "twe", "swale"} {
		m["eval.tune_s."+g] = durPerPass("elastic." + g + ".tune")
	}
	for _, g := range kernelFamilies {
		m["eval.tune_s."+g] = durPerPass("kernel." + g + ".tune")
	}
	m["eval.mean_accuracy"] = ratio(rec.count("acc.sum"), rec.count("acc.n"))

	gp := rec.count("grid.pairs")
	m["search.grid.pairs"] = perPass("grid.pairs")
	m["search.grid.lb_pruned"] = perPass("grid.lb_pruned")
	m["search.grid.pair_lb"] = perPass("grid.pair_lb")
	m["search.grid.full_dist"] = perPass("grid.full_dist")
	m["search.grid.prune_rate"] = ratio(rec.count("grid.lb_pruned")+rec.count("grid.pair_lb"), gp)
	m["search.grid.warm_prune_rate"] = ratio(rec.count("grid.warm.lb_pruned")+rec.count("grid.warm.pair_lb"), rec.count("grid.warm.pairs"))
	m["search.grid.repaired"] = perPass("grid.repaired")
	m["search.grid.prep_shared_rate"] = ratio(rec.count("grid.prep_shared"), rec.count("grid.prep_total"))

	var onenn float64
	for n, t := range tot {
		if strings.HasSuffix(n, ".onenn") {
			onenn += t.Dur.Seconds()
		}
	}
	m["search.onenn_s"] = onenn / traced
	m["search.onenn.prune_rate"] = ratio(rec.count("onenn.lb_pruned"), rec.count("onenn.pairs"))
	m["search.dtw.full_dist_per_query"] = ratio(rec.count("serve.dtw.full_dist"), rec.count("serve.dtw.queries"))
	m["search.dtw.prune_rate"] = ratio(rec.count("serve.dtw.lb_pruned"), rec.count("serve.dtw.pairs"))

	// ns per distance: self time of a family's tuning and 1-NN spans over
	// the full distances those calls report.
	nsPerDist := func(layer, fam string) float64 {
		self := (tot[layer+"."+fam+".tune"].Self + tot[layer+"."+fam+".onenn"].Self).Seconds() / traced
		return ratio(self*1e9, perPass("dist."+fam))
	}
	for _, f := range elasticFamilies {
		m["elastic.ns_per_dist."+f] = nsPerDist("elastic", f)
	}
	for _, f := range kernelFamilies {
		m["kernel.ns_per_dist."+f] = nsPerDist("kernel", f)
	}
	for _, f := range []string{"dtw", "msm", "twe", "erp"} {
		for _, n := range []string{"n1024", "n4096"} {
			m["elastic.pair_ms."+f+"."+n] = perCall("elastic."+f+".pair."+n) * 1e3
		}
	}
	passWall := (tot["pass"].Dur.Seconds()) / traced
	m["elastic.self_share"] = ratio(selfWith("elastic."), passWall)
	m["kernel.self_share"] = ratio(selfWith("kernel."), passWall)
	m["kernel.gak.self_share"] = ratio(selfWith("kernel.gak."), passWall)
	m["sliding.nccc_s"] = durPerPass("sliding.nccc.onenn")

	lockSelf := tot["lockstep.lorentzian.query"].Self.Seconds() / traced
	m["lockstep.ns_per_pair"] = ratio(lockSelf*1e9, perPass("serve.lockstep.pairs"))
	annQ := rec.count("ann.queries")
	m["ann.embed_dist_per_query"] = ratio(rec.count("ann.embed_dist"), annQ)
	m["ann.exact_per_query"] = ratio(rec.count("ann.exact"), annQ)
	m["ann.lb_pruned_per_query"] = ratio(rec.count("ann.lb_pruned"), annQ)
	m["ann.fallback_rate"] = ratio(rec.count("ann.fallbacks"), annQ)

	m["profile.selfjoin_s"] = durPerPass("profile.selfjoin")
	m["profile.abjoin_s"] = durPerPass("profile.abjoin")
	joinSelf := (tot["profile.selfjoin"].Self + tot["profile.abjoin"].Self).Seconds() / traced
	m["profile.ns_per_cell"] = ratio(joinSelf*1e9, perPass("profile.cells"))
	m["subsequence.topk_s"] = durPerPass("subsequence.topk")
	m["stats.wilcoxon_s"] = durPerPass("stats.wilcoxon")

	wall, cpu := median(ph.walls), median(ph.cpus)
	m["par.cpu_util"] = ratio(cpu, wall*float64(runtime.GOMAXPROCS(0)))
	m["go.gc_cpu_fraction"] = ratio(ph.after.gcCPU-ph.before.gcCPU, ph.after.totalCPU-ph.before.totalCPU)
	m["go.alloc_mb"] = (ph.after.allocBytes - ph.before.allocBytes) / passes / (1 << 20)
	m["go.mallocs"] = (ph.after.allocObjects - ph.before.allocObjects) / passes

	for _, q := range []string{"dtw", "lockstep", "ann"} {
		s := rec.samplesOf("lat." + q)
		m[q+"_p50_ms"] = quantile(s, 0.50)
		m[q+"_p99_ms"] = quantile(s, 0.99)
	}
	m["ingest_p50_ms"] = quantile(rec.samplesOf("lat.ingest"), 0.50)
	m["queries_per_s"] = ratio(queries, rec.count("serve.round_s"))
	m["recall_at_10"] = ratio(rec.count("recall.found"), rec.count("recall.total"))
	m["error_rate"] = errorRate
	m["trace.wall_s"] = median(ph.tracedWalls)
	m["trace.overhead_s"] = median(ph.tracedWalls) - wall
	return m
}
