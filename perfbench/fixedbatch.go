package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sync"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/rng"
)

// fixed-batch: one closed-loop client sends POST /estimate/batch with
// explicit steps and a fresh seed per batch, so neither μ planning nor
// the result cache takes part. The graph is ten times cold-plan's, so
// nearly every chain step misses the memo and costs one traversal plus
// one identity scan. Batches run in the fixed order unweighted,
// unweighted, weighted: the weighted twin takes the Dijkstra route and
// bypasses the BFS kernel. Two unweighted batches to one weighted keep
// p50 inside the unweighted mode and p90 inside the weighted one,
// instead of on the boundary between them, where a 1:1 mix puts p50.
//
// The graph does not depend on the workload seed (the targets, their
// order and the chain seeds do): an exact reference on 15,000 vertices
// takes minutes, so it is computed once by `perfbench refgen` into
// refdata/fixed-batch.json, which the run checks against the graph it
// generates.
const (
	fixedN         = 15000
	fixedAttach    = 3
	fixedGraphSeed = 20190326
	fixedSteps     = 48
	fixedWorkers   = 2
	fixedHubs      = 8  // candidate hubs: the top of the degree ranking
	fixedPerClass  = 16 // candidate mid and low targets, spread over their class
)

//go:embed refdata/fixed-batch.json
var fixedRefJSON []byte

// fixedRef is the stored reference: exact BC, μ and E[f²] of every
// candidate target, on the unweighted graph and on its weighted twin.
type fixedRef struct {
	N          int              `json:"n"`
	M          int              `json:"m"`
	HashU      string           `json:"edge_list_fnv64_unweighted"`
	HashW      string           `json:"edge_list_fnv64_weighted"`
	Candidates []fixedCandidate `json:"candidates"`
}

type fixedCandidate struct {
	V     int     `json:"v"`
	Class string  `json:"class"`
	BC    float64 `json:"bc"`
	Mu    float64 `json:"mu"`
	F2    float64 `json:"mean_f2"`
	WBC   float64 `json:"bc_weighted"`
	WMu   float64 `json:"mu_weighted"`
	WF2   float64 `json:"mean_f2_weighted"`
}

// exact returns the reference figures of the candidate on one half.
func (c fixedCandidate) exact(weighted bool) exactStats {
	if weighted {
		return exactStats{bc: c.WBC, mu: c.WMu, f2: c.WF2}
	}
	return exactStats{bc: c.BC, mu: c.Mu, f2: c.F2}
}

// fixedGraphs generates the workload's graph and its weighted twin.
func fixedGraphs() (g, gw *graph.Graph) {
	g = baGraph(fixedN, fixedAttach, fixedGraphSeed)
	gw = graph.WithUniformWeights(g, 1, 10, rng.New(fixedGraphSeed+1))
	return g, gw
}

func edgeHash(edges []byte) string {
	h := fnv.New64a()
	h.Write(edges)
	return fmt.Sprintf("%016x", h.Sum64())
}

type fixedBatch struct {
	g, gw         *graph.Graph
	bodyU, bodyW  []byte
	ref           map[int]fixedCandidate
	hub, mid, low []int // candidates by class
	warm, probes  []int // targets outside the candidate set

	mu      sync.Mutex
	next    int // index of the next measured batch, across phases
	answers []fixedAnswer
}

type fixedAnswer struct {
	weighted bool
	targets  []int
	resp     engine.BatchResponse
}

func (w *fixedBatch) durable() bool   { return false }
func (w *fixedBatch) primary() string { return "batch" }
func (w *fixedBatch) ids(round int) (string, string) {
	return fmt.Sprintf("fixed-batch-u-%d", round), fmt.Sprintf("fixed-batch-w-%d", round)
}

// fixedCandidates picks the fixed candidate targets and the reserved
// warm-up and probe targets of g. The hubs are the top of the degree
// ranking, whose dependency columns are spread over many sources, so
// their pooled estimates are tight enough for the check to reject a
// wrong answer; mid and low targets are spread over their classes.
func fixedCandidates(g *graph.Graph) (hub, mid, low, reserved []int) {
	h, m, l := degreeClasses(g)
	hub, mid, low = h[:fixedHubs], takeEvery(m, fixedPerClass), takeEvery(l, fixedPerClass)
	// Index 1..4 of the mid and low classes are never picked by
	// takeEvery at these class sizes.
	reserved = []int{h[fixedHubs], m[1], l[1], l[2], h[fixedHubs+1], m[2], l[3], l[4]}
	return hub, mid, low, reserved
}

func (w *fixedBatch) loadRef() error {
	var ref fixedRef
	if err := json.Unmarshal(fixedRefJSON, &ref); err != nil {
		return fmt.Errorf("reading refdata/fixed-batch.json: %v", err)
	}
	if ref.N != w.g.N() || ref.M != w.g.M() || ref.HashU != edgeHash(w.bodyU) || ref.HashW != edgeHash(w.bodyW) {
		return fmt.Errorf("refdata/fixed-batch.json describes another graph (n=%d m=%d); run `perfbench refgen`", ref.N, ref.M)
	}
	w.ref = map[int]fixedCandidate{}
	for _, c := range ref.Candidates {
		w.ref[c.V] = c
	}
	for _, v := range append(append(append([]int(nil), w.hub...), w.mid...), w.low...) {
		if _, ok := w.ref[v]; !ok {
			return fmt.Errorf("refdata/fixed-batch.json lacks candidate %d; run `perfbench refgen`", v)
		}
	}
	return nil
}

func (w *fixedBatch) setup(b *bench, round int) error {
	w.g, w.gw = fixedGraphs()
	w.bodyU, w.bodyW = edgeList(w.g), edgeList(w.gw)
	var reserved []int
	w.hub, w.mid, w.low, reserved = fixedCandidates(w.g)
	w.warm, w.probes = reserved[:4], reserved[4:]
	idU, idW := w.ids(round)
	for _, s := range []struct {
		id   string
		body []byte
	}{{idU, w.bodyU}, {idW, w.bodyW}} {
		if err := b.upload(s.id, s.body); err != nil {
			return err
		}
		req := w.request(w.warm, opSeed(b.seed, -1))
		if _, err := b.postJSON("/graphs/"+s.id+"/estimate/batch", req, &engine.BatchResponse{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *fixedBatch) discard(b *bench, round int) error {
	idU, idW := w.ids(round)
	if err := b.deleteSession(idU); err != nil {
		return err
	}
	return b.deleteSession(idW)
}

func (w *fixedBatch) request(targets []int, seed uint64) engine.BatchRequest {
	t := make([]int64, len(targets))
	for i, v := range targets {
		t[i] = int64(v)
	}
	return engine.BatchRequest{Targets: t, Seed: seed, Concurrency: fixedWorkers, Steps: fixedSteps,
		Estimator: mcmc.EstimatorProposalSide.String()}
}

// batchInputs returns batch i's graph half and targets: one hub, one
// mid and two low candidates.
func (w *fixedBatch) batchInputs(seed uint64, i int) (bool, []int) {
	r := newRand(seed, 100+uint64(i))
	targets := []int{w.hub[r.IntN(len(w.hub))], w.mid[r.IntN(len(w.mid))]}
	a := r.IntN(len(w.low))
	c := (a + 1 + r.IntN(len(w.low)-1)) % len(w.low)
	targets = append(targets, w.low[a], w.low[c])
	return i%3 == 2, targets
}

func (w *fixedBatch) measure(b *bench, ph *phase, until time.Time, minOps int) {
	idU, idW := w.ids(b.final)
	before, _ := b.readStats([]string{idU, idW})
	closedLoop(ph, "batch", 1, until, minOps, func() error {
		w.mu.Lock()
		i := w.next
		w.next++
		w.mu.Unlock()
		weighted, targets := w.batchInputs(b.seed, i)
		id := idU
		if weighted {
			id = idW
		}
		var resp engine.BatchResponse
		var nb int
		var err error
		b.tr.do("http.batch", 0, fmt.Sprintf("batch-%d", i), func(int64) {
			nb, err = b.postJSON("/graphs/"+id+"/estimate/batch", w.request(targets, opSeed(b.seed, i)), &resp)
		})
		if err != nil {
			return err
		}
		if len(resp.Results) != len(targets) {
			return fmt.Errorf("malformed reply: %d results for %d targets", len(resp.Results), len(targets))
		}
		ph.add("replies", 1)
		ph.add("resp_bytes", float64(nb))
		for _, r := range resp.Results {
			ph.add("chains", 1)
			ph.add("steps", float64(r.PlannedSteps))
			ph.add("evals", float64(r.Evals))
			ph.add("hits", float64(r.CacheHits))
			ph.add("accept", r.AcceptanceRate)
		}
		w.mu.Lock()
		w.answers = append(w.answers, fixedAnswer{weighted: weighted, targets: targets, resp: resp})
		w.mu.Unlock()
		return nil
	})
	if after, err := b.readStats([]string{idU, idW}); err == nil && before != nil {
		statsDelta(ph, before, after)
	}
}

// check compares the proposal-side estimates with the exact BC of
// their targets (see proposalCheck).
func (w *fixedBatch) check(b *bench, ph *phase) {
	if err := w.loadRef(); err != nil {
		b.fail("fixed-batch: %v", err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var est []proposalEstimate
	for _, a := range w.answers {
		for k, r := range a.resp.Results {
			if r.Vertex != int64(a.targets[k]) || r.PlannedSteps != fixedSteps {
				b.fail("fixed-batch: result %d answers vertex %d with %d steps, want vertex %d with %d", k, r.Vertex, r.PlannedSteps, a.targets[k], fixedSteps)
				continue
			}
			est = append(est, proposalEstimate{key: targetKey{v: a.targets[k], weighted: a.weighted}, value: r.Value, steps: r.PlannedSteps})
		}
	}
	exact := func(k targetKey) exactStats { return w.ref[k.v].exact(k.weighted) }
	outside, targets, errs := proposalCheck(est, exact, checkDelta)
	for _, e := range errs {
		b.fail("fixed-batch: %s", e)
	}
	if float64(outside) > checkDelta*float64(targets) {
		b.fail("fixed-batch: %d of %d pooled targets outside Bernstein's band around exact BC", outside, targets)
	}
	ph.extra["checked_estimates"] = float64(len(est))
}

// targetKey names a target on one half of the workload.
type targetKey struct {
	v        int
	weighted bool
}

// exactStats are the reference figures of a target: BC, μ and E[f²].
type exactStats struct{ bc, mu, f2 float64 }

// proposalEstimate is one proposal-side estimate: the mean of steps
// uniform proposals of f for its target.
type proposalEstimate struct {
	key   targetKey
	value float64
	steps int
}

// proposalCheck pools the estimates of each target (their weighted
// mean is the mean of all their proposals) and counts the targets whose
// pooled mean lies outside Bernstein's band around the exact BC at the
// pooled proposal count; each target lies outside with probability at
// most δ. An estimate outside [0, μ·BC], the range of f, cannot come
// from the estimator at all and is reported in errs.
func proposalCheck(est []proposalEstimate, exact func(targetKey) exactStats, delta float64) (outside, targets int, errs []string) {
	sum := map[targetKey]float64{}
	steps := map[targetKey]int{}
	var keys []targetKey
	for _, e := range est {
		x := exact(e.key)
		if e.value < 0 || e.value > x.mu*x.bc*(1+1e-9) {
			errs = append(errs, fmt.Sprintf("vertex %d (weighted %v): estimate %.6g outside [0, μ·BC] = [0, %.6g]", e.key.v, e.key.weighted, e.value, x.mu*x.bc))
		}
		if _, ok := steps[e.key]; !ok {
			keys = append(keys, e.key)
		}
		sum[e.key] += e.value * float64(e.steps)
		steps[e.key] += e.steps
	}
	for _, k := range keys {
		x := exact(k)
		if math.Abs(sum[k]/float64(steps[k])-x.bc) > proposalBand(x.mu, x.bc, x.f2, delta, steps[k]) {
			outside++
		}
	}
	return outside, len(keys), errs
}

// layers times the batch directly on twin engines, each target of it
// alone, and the same batch over HTTP.
func (w *fixedBatch) layers(b *bench, ph *phase, lm layerMetrics) {
	kernelProbes(b, w.g, w.gw, w.probes[0], lm)
	ctx := context.Background()
	idU, idW := w.ids(b.final)
	var batchMS, targetMS, httpMS float64
	var batches, targets int
	for _, half := range []struct {
		body []byte
		id   string
	}{{w.bodyU, idU}, {w.bodyW, idW}} {
		twin, vid, err := twinEngine(half.body)
		if err != nil {
			b.fail("fixed-batch: %v", err)
			return
		}
		ids := func(labels []int) []int {
			out := make([]int, len(labels))
			for i, l := range labels {
				out[i] = vid(l)
			}
			return out
		}
		opts := core.Options{Steps: fixedSteps, Estimator: mcmc.EstimatorProposalSide}
		// Warm the twin as setup warmed the served sessions.
		if _, err := twin.EstimateBatchContext(ctx, ids(w.warm), engine.BatchOptions{Estimation: opts, Seed: opSeed(b.seed, -1), Concurrency: fixedWorkers}); err != nil {
			b.fail("fixed-batch: twin warm-up: %v", err)
		}
		for k := 0; k < 2; k++ {
			req := fmt.Sprintf("probe-%s-%d", half.id, k)
			seed := opSeed(b.seed, -10-k)
			batchMS += ms(b.tr.do("engine.batch", 0, req, func(int64) {
				if _, err := twin.EstimateBatchContext(ctx, ids(w.probes), engine.BatchOptions{Estimation: opts, Seed: seed, Concurrency: fixedWorkers}); err != nil {
					b.fail("fixed-batch: EstimateBatchContext: %v", err)
				}
			}))
			for _, t := range ids(w.probes) {
				o := opts
				o.Seed = engine.SeedFor(seed, t)
				targetMS += ms(b.tr.do("engine.estimate", 0, req, func(int64) {
					if _, err := twin.EstimateContext(ctx, t, o); err != nil {
						b.fail("fixed-batch: EstimateContext: %v", err)
					}
				}))
				targets++
			}
			var herr error
			httpMS += ms(b.tr.do("http.batch", 0, req, func(int64) {
				_, herr = b.postJSON("/graphs/"+half.id+"/estimate/batch", w.request(w.probes, seed), &engine.BatchResponse{})
			}))
			if herr != nil {
				b.fail("fixed-batch: probe batch: %v", herr)
			}
			batches++
		}
	}
	lm["engine.batch_ms"] = batchMS / float64(batches)
	lm["engine.estimate_ms"] = targetMS / float64(targets)
	lm["engine.batch_parallel_eff"] = targetMS / (fixedWorkers * batchMS)
	lm["mcmc.step_ns"] = targetMS / float64(targets) * 1e6 / fixedSteps
	lm["http.overhead_ms"] = (httpMS - batchMS) / float64(batches)
}

// refgenMain regenerates refdata/fixed-batch.json from the fixed graph
// seed with the benchmark's own Brandes (minutes of CPU).
func refgenMain(args []string) int {
	fs := flag.NewFlagSet("refgen", flag.ContinueOnError)
	out := fs.String("out", "perfbench/refdata/fixed-batch.json", "output file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, gw := fixedGraphs()
	hub, mid, low, _ := fixedCandidates(g)
	t0 := time.Now()
	var colU, colW *refColumns
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); colU = referenceColumns(refGraphOf(g)) }()
	go func() { defer wg.Done(); colW = referenceColumns(refGraphOf(gw)) }()
	wg.Wait()
	ref := fixedRef{N: g.N(), M: g.M(), HashU: edgeHash(edgeList(g)), HashW: edgeHash(edgeList(gw))}
	for _, c := range []struct {
		name string
		vs   []int
	}{{"hub", hub}, {"mid", mid}, {"low", low}} {
		for _, v := range c.vs {
			ref.Candidates = append(ref.Candidates, fixedCandidate{V: v, Class: c.name,
				BC: colU.bc(v), Mu: colU.mu(v), F2: colU.meanF2(v),
				WBC: colW.bc(v), WMu: colW.mu(v), WF2: colW.meanF2(v)})
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("wrote %s (%d candidates) in %.1fs\n", *out, len(ref.Candidates), time.Since(t0).Seconds())
	return 0
}
