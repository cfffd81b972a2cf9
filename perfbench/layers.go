package main

import (
	"bytes"
	"fmt"
	"sort"

	"bcmh/internal/brandes"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/rng"
	"bcmh/internal/sssp"
	"bcmh/internal/store"
)

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit, layer, how string
}

// perLayerDefs lists every per-layer metric in the order the table
// prints them. A layer a workload does not exercise reads 0 there: no
// time was spent in it and nothing was counted.
var perLayerDefs = []layerDef{
	{"sssp.bfs_us", "us", "internal/sssp", "BFS.Run over a fixed source sample of the workload graph"},
	{"sssp.dijkstra_us", "us", "internal/sssp", "Dijkstra.Run over a fixed source sample of the weighted twin"},
	{"sssp.traversals_per_op", "count", "internal/sssp", "evals from the replies plus n per μ column"},
	{"brandes.scan_us", "us", "internal/brandes", "DependencyOnTargetIdentity after a BFS.Run"},
	{"brandes.column_ms", "ms", "internal/brandes", "DependencyVectorWithTarget on a fresh target"},
	{"plan.mu_ms", "ms", "mu planning", "Engine.MuStatsContext on an unseen target"},
	{"plan.share", "ratio", "mu planning", "plan.mu_ms over a whole direct cold-plan operation"},
	{"mcmc.steps_per_op", "count", "internal/mcmc", "planned_steps / steps_run (rank: total_steps) per operation"},
	{"mcmc.evals_per_op", "count", "internal/mcmc", "evals per operation"},
	{"mcmc.memo_hit_ratio", "ratio", "internal/mcmc", "cache_hits / (cache_hits + evals)"},
	{"mcmc.accept_rate", "ratio", "internal/mcmc", "mean acceptance_rate"},
	{"mcmc.step_ns", "ns", "internal/mcmc", "direct Engine.EstimateContext per step (cold-plan: mu already cached)"},
	{"mcmc.memo_carried", "count", "internal/mcmc", "Pool.CarryStats carried delta over the traced phase"},
	{"mcmc.memo_discarded", "count", "internal/mcmc", "Pool.CarryStats discarded delta over the traced phase"},
	{"engine.estimate_ms", "ms", "internal/engine", "the primary request called directly on a twin engine"},
	{"engine.batch_ms", "ms", "internal/engine", "direct EstimateBatchContext on a twin engine"},
	{"engine.batch_parallel_eff", "ratio", "internal/engine", "sum of per-target direct times / (workers x batch wall)"},
	{"engine.mu_misses", "count", "internal/engine", "/stats delta over the traced phase"},
	{"engine.result_hits", "count", "internal/engine", "/stats delta over the traced phase"},
	{"engine.result_misses", "count", "internal/engine", "/stats delta over the traced phase"},
	{"http.overhead_ms", "ms", "internal/engine + internal/store", "HTTP latency minus the direct engine call, same request"},
	{"http.resp_bytes", "B", "internal/engine + internal/store", "mean reply size of the primary operation"},
	{"store.stream_batch_us", "us", "write path", "direct Store.StreamBatch on a twin durable session"},
	{"graph.overlay_apply_us", "us", "write path", "direct graph.ApplyEditsOverlay"},
	{"engine.stream_swap_us", "us", "write path", "direct Engine.StreamSwap"},
	{"durable.append_us", "us", "write path", "direct Log.Append"},
	{"graph.compactions", "count", "write path", "overlay folds observed in the traced phase"},
	{"engine.affected_per_batch", "count", "write path", "mean SwapReport.Affected of the direct swaps"},
	{"durable.recover_ms", "ms", "internal/durable", "store.Open replay of the run's data directory"},
	{"writer.lateness_ms", "ms", "benchmark", "p99 of send time minus due time of the open-loop writer"},
	{"write_p50_ms", "ms", "write path, end to end", "median edit-batch latency from its due time"},
	{"write_p99_ms", "ms", "write path, end to end", "p99 edit-batch latency from its due time"},
	{"rank.job_ms", "ms", "internal/rank", "direct rank.Run on Engine.Snapshot with the job's options"},
	{"rank.rounds", "count", "internal/rank", "RankResult rounds"},
	{"rank.total_steps", "count", "internal/rank", "RankResult total_steps"},
	{"rank.pruned", "count", "internal/rank", "RankResult pruned"},
	{"jobs.wait_ms", "ms", "internal/jobs + store", "job latency minus rank.job_ms, same options and seed"},
	{"runtime.alloc_mb_per_op", "MB", "Go runtime", "MemStats TotalAlloc delta per primary operation"},
	{"runtime.gc_per_op", "count", "Go runtime", "MemStats NumGC delta per primary operation"},
	{"trace.overhead_p50_pct", "%", "benchmark", "traced minus untraced latency p50, percent of untraced"},
	{"trace.overhead_ops_pct", "%", "benchmark", "untraced minus traced ops_per_s, percent of untraced"},
}

// layerMetrics holds the traced run's per-layer values by name.
type layerMetrics map[string]float64

// phaseCommon adds the metrics every workload derives from its traced
// phase: runtime allocation and GC per operation, reply size and the
// chain counters the replies carry.
func (lm layerMetrics) phaseCommon(ph *phase, primary string) {
	ops := float64(len(ph.class(primary).lat))
	if ops == 0 {
		return
	}
	lm["runtime.alloc_mb_per_op"] = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / 1e6 / ops
	lm["runtime.gc_per_op"] = float64(ph.mem1.NumGC-ph.mem0.NumGC) / ops
	s := ph.sums
	if s["replies"] > 0 {
		lm["http.resp_bytes"] = s["resp_bytes"] / s["replies"]
	}
	lm["mcmc.steps_per_op"] = s["steps"] / ops
	if s["chains"] > 0 {
		lm["mcmc.evals_per_op"] = s["evals"] / ops
		lm["mcmc.accept_rate"] = s["accept"] / s["chains"]
		lm["sssp.traversals_per_op"] = (s["evals"] + s["column_traversals"]) / ops
		if s["evals"]+s["hits"] > 0 {
			lm["mcmc.memo_hit_ratio"] = s["hits"] / (s["hits"] + s["evals"])
		}
	}
	for _, k := range []string{"engine.mu_misses", "engine.result_hits", "engine.result_misses", "graph.compactions",
		"mcmc.memo_carried", "mcmc.memo_discarded", "durable.recover_ms", "writer.lateness_ms", "write_p50_ms", "write_p99_ms"} {
		if v, ok := ph.extra[k]; ok {
			lm[k] = v
		}
	}
}

// overhead compares the untraced and traced halves of a traced run.
func (lm layerMetrics) overhead(plain, traced *phase, primary string) {
	p0, _ := plain.class(primary).lat.percentile(0.5)
	p1, _ := traced.class(primary).lat.percentile(0.5)
	if p0 > 0 {
		lm["trace.overhead_p50_pct"] = 100 * (p1 - p0) / p0
	}
	r0 := float64(len(plain.class(primary).lat)) / plain.seconds()
	r1 := float64(len(traced.class(primary).lat)) / traced.seconds()
	if r0 > 0 {
		lm["trace.overhead_ops_pct"] = 100 * (r0 - r1) / r0
	}
	fmt.Printf("tracing overhead: p50 %.3f ms untraced vs %.3f ms traced; %.3f vs %.3f op/s\n", p0, p1, r0, r1)
}

// meanSpanMS is the mean duration of the spans named name, in ms.
func meanSpanMS(spans []span, name string) float64 {
	var n int
	var t int64
	for _, s := range spans {
		if s.Name == name {
			n++
			t += s.End - s.Start
		}
	}
	if n == 0 {
		return 0
	}
	return float64(t) / float64(n) / 1e6
}

// kernelSources is the size of the fixed source sample the kernel
// probes time.
const kernelSources = 64

// kernelProbes times the traversal kernels and the identity scan on g
// and the Dijkstra kernel on gw, over the fixed source sample, and one
// dependency column on a fresh target. target is a vertex no request
// of the run names.
func kernelProbes(b *bench, g, gw *graph.Graph, target int, lm layerMetrics) {
	n := g.N()
	var sink float64
	b.tr.do("probe.kernels", 0, "kernels", func(root int64) {
		bfs := sssp.NewBFS(g)
		ts := sssp.NewTargetSPD(bfs, target)
		for i := 0; i < kernelSources; i++ {
			s := i * n / kernelSources
			b.tr.do("sssp.bfs", root, "kernels", func(int64) { bfs.Run(s) })
			b.tr.do("brandes.scan", root, "kernels", func(int64) { sink += brandes.DependencyOnTargetIdentity(bfs, ts, s) })
		}
		dj := sssp.NewDijkstra(gw)
		for i := 0; i < kernelSources/2; i++ {
			s := i * n / (kernelSources / 2)
			b.tr.do("sssp.dijkstra", root, "kernels", func(int64) { dj.Run(s) })
		}
		b.tr.do("brandes.column", root, "kernels", func(int64) {
			col := brandes.DependencyVectorWithTarget(g, sssp.NewTargetSPD(bfs, (target+1)%n), 0)
			sink += col[0]
		})
	})
	spans := b.tr.snapshot()
	lm["sssp.bfs_us"] = meanSpanMS(spans, "sssp.bfs") * 1e3
	lm["brandes.scan_us"] = meanSpanMS(spans, "brandes.scan") * 1e3
	lm["sssp.dijkstra_us"] = meanSpanMS(spans, "sssp.dijkstra") * 1e3
	lm["brandes.column_ms"] = meanSpanMS(spans, "brandes.column")
	_ = sink
}

// twinEngine builds an engine the way the server builds a session, from
// the uploaded edge list (so its vertex order, and with it every
// traversal's memory layout, is the session's), with the result cache
// off. id maps an edge-list label to the twin's vertex id.
func twinEngine(edges []byte) (twin *engine.Engine, id func(label int) int, err error) {
	g, labels, err := graph.ReadEdgeList(bytes.NewReader(edges))
	if err != nil {
		return nil, nil, err
	}
	byLabel := make(map[int64]int, len(labels))
	for v, l := range labels {
		byLabel[l] = v
	}
	twin, err = engine.NewWithConfig(g, engine.Config{ResultCacheSize: -1})
	if err != nil {
		return nil, nil, err
	}
	if twin.Mapping() != nil {
		return nil, nil, fmt.Errorf("twin engine: graph is not connected")
	}
	return twin, func(label int) int { return byLabel[int64(label)] }, nil
}

// weightedTwin is the Dijkstra-route twin of g the kernel probes use
// on workloads that serve no weighted graph themselves.
func weightedTwin(g *graph.Graph, seed uint64) *graph.Graph {
	return graph.WithUniformWeights(g, 1, 10, rng.New(seed^0x5eed))
}

// sessionStats reads a session's engine counters over HTTP.
func (b *bench) sessionStats(id string) (store.SessionStatsResponse, error) {
	var out store.SessionStatsResponse
	_, err := b.getJSON("/graphs/"+id+"/stats", &out)
	return out, err
}

// statsDelta records the engine counter deltas of the sessions ids
// between two reads into ph.extra.
func statsDelta(ph *phase, before, after []engine.Stats) {
	for i := range before {
		ph.extra["engine.mu_misses"] += float64(after[i].MuMisses - before[i].MuMisses)
		ph.extra["engine.result_hits"] += float64(after[i].ResultHits - before[i].ResultHits)
		ph.extra["engine.result_misses"] += float64(after[i].ResultMisses - before[i].ResultMisses)
	}
}

// readStats reads the engine counters of several sessions.
func (b *bench) readStats(ids []string) ([]engine.Stats, error) {
	out := make([]engine.Stats, len(ids))
	for i, id := range ids {
		s, err := b.sessionStats(id)
		if err != nil {
			return nil, err
		}
		out[i] = s.Stats
	}
	return out, nil
}

// printLayerTable prints the per-layer metrics and the self time of
// every span name.
func printLayerTable(b *bench, lm layerMetrics) {
	fmt.Printf("per-layer metrics, workload %s seed %d\n", b.name, b.seed)
	fmt.Printf("%-26s %14s  %-6s %-32s %s\n", "metric", "value", "unit", "layer", "measured as")
	for _, d := range perLayerDefs {
		v, ok := lm[d.name]
		val := fmt.Sprintf("%14.4f", v)
		if !ok {
			val = fmt.Sprintf("%14s", "0 (n/a)")
		}
		fmt.Printf("%-26s %s  %-6s %-32s %s\n", d.name, val, d.unit, d.layer, d.how)
	}
	st := selfTimes(b.tr.snapshot())
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, k := range names {
		s := st[k]
		fmt.Printf("%-22s %8d %12.3f %12.3f %12.4f\n", k, s.Count, s.TotalMS, s.SelfMS, s.TotalMS/float64(s.Count))
	}
}
