package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
)

// cold-plan: the served default. Two closed-loop clients send single
// estimates naming no steps, mu_bound or adaptive, so every request
// derives exact μ for its target (an O(nm) dependency column) and runs
// the Eq. 14 plan, capped at 4,194,304 steps. Every request names a
// target no earlier request of the run named. Targets are drawn across
// the degree classes in proportion to their sizes: each block of 20
// requests names 1 hub, 5 mid and 14 low targets, so a run's mix does
// not change with how many requests it completes. The sequence holds
// 74 blocks, 1,480 targets, about 14 times what a run requests today;
// a run that exhausts it fails rather than repeat a target.
const (
	coldN       = 1500
	coldAttach  = 3
	coldClients = 2
	// coldWarmSteps is the step count of the set-up's warm-up estimate.
	coldWarmSteps = 64
)

type coldPlan struct {
	g      *graph.Graph
	warm   int   // warm-up target, never measured
	probes []int // targets of the traced run's direct probes
	seq    []int // measured targets, in request order

	mu      sync.Mutex
	next    int // index of the next measured request, across phases
	answers []coldAnswer
}

type coldAnswer struct {
	target int
	resp   engine.EstimateResponse
}

func (w *coldPlan) durable() bool   { return false }
func (w *coldPlan) primary() string { return "estimate" }
func (w *coldPlan) sessionID(round int) string {
	return fmt.Sprintf("cold-plan-%d", round)
}

// inputs draws the run's targets from the seed.
func (w *coldPlan) inputs(seed uint64) {
	hub, mid, low := degreeClasses(w.g)
	r := newRand(seed, 1)
	for _, c := range [][]int{hub, mid, low} {
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	w.warm = low[0]
	w.probes = []int{hub[0], mid[0], low[1], low[2]}
	hub, mid, low = hub[1:], mid[1:], low[3:]
	blocks := min(len(hub), len(mid)/5, len(low)/14)
	var h, m, l int
	for k := 0; k < blocks*20; k++ {
		switch {
		case k%20 == 0:
			w.seq, h = append(w.seq, hub[h]), h+1
		case k%4 == 2:
			w.seq, m = append(w.seq, mid[m]), m+1
		default:
			w.seq, l = append(w.seq, low[l]), l+1
		}
	}
}

func (w *coldPlan) setup(b *bench, round int) error {
	w.g = baGraph(coldN, coldAttach, b.seed)
	if w.seq == nil {
		w.inputs(b.seed)
	}
	id := w.sessionID(round)
	if err := b.upload(id, edgeList(w.g)); err != nil {
		return err
	}
	// The warm-up names its steps: it fills the session's pools without
	// the target-dependent cost of a μ column and a capped chain, which
	// would make setup_s a second, noisier latency figure.
	var resp engine.EstimateResponse
	_, err := b.postJSON("/graphs/"+id+"/estimate", engine.EstimateRequest{Vertex: int64(w.warm), Steps: coldWarmSteps, Seed: opSeed(b.seed, -1)}, &resp)
	return err
}

func (w *coldPlan) discard(b *bench, round int) error { return b.deleteSession(w.sessionID(round)) }

func (w *coldPlan) measure(b *bench, ph *phase, until time.Time, minOps int) {
	id := w.sessionID(b.final)
	before, _ := b.readStats([]string{id})
	n := float64(w.g.N())
	closedLoop(ph, "estimate", coldClients, until, minOps, func() error {
		// The index runs on across the two halves of a traced run, so no
		// target is requested twice.
		w.mu.Lock()
		i := w.next
		w.next++
		w.mu.Unlock()
		if i >= len(w.seq) {
			if i == len(w.seq) {
				b.fail("cold-plan: the run requested all %d targets; it needs a larger graph", len(w.seq))
			}
			return errors.New("target sequence exhausted")
		}
		t := w.seq[i]
		var resp engine.EstimateResponse
		var nb int
		var err error
		b.tr.do("http.estimate", 0, fmt.Sprintf("est-%d", i), func(int64) {
			nb, err = b.postJSON("/graphs/"+id+"/estimate", engine.EstimateRequest{Vertex: int64(t), Seed: opSeed(b.seed, i)}, &resp)
		})
		if err != nil {
			return err
		}
		ph.add("replies", 1)
		ph.add("resp_bytes", float64(nb))
		ph.add("chains", 1)
		ph.add("steps", float64(resp.PlannedSteps))
		ph.add("evals", float64(resp.Evals))
		ph.add("hits", float64(resp.CacheHits))
		ph.add("accept", resp.AcceptanceRate)
		ph.add("column_traversals", n)
		w.mu.Lock()
		w.answers = append(w.answers, coldAnswer{target: t, resp: resp})
		w.mu.Unlock()
		return nil
	})
	if after, err := b.readStats([]string{id}); err == nil && before != nil {
		statsDelta(ph, before, after)
	}
}

// check compares every answer with the reference: mu_used must be the
// exact μ of the target, and the chain average must lie within the
// Eq. 14 band (inverted at the reply's planned_steps) of the chain
// limit Σδ²/((n−1)Σδ) for all but a δ share of the answers.
func (w *coldPlan) check(b *bench, ph *phase) {
	ref := referenceColumns(refGraphOf(w.g))
	w.mu.Lock()
	defer w.mu.Unlock()
	outside := 0
	for _, a := range w.answers {
		if a.resp.Vertex != int64(a.target) {
			b.fail("cold-plan: reply for vertex %d answers vertex %d", a.target, a.resp.Vertex)
			continue
		}
		mu := ref.mu(a.target)
		if math.Abs(a.resp.MuUsed-mu) > 1e-9*math.Max(1, mu) {
			b.fail("cold-plan: vertex %d: mu_used %.12g, reference μ %.12g", a.target, a.resp.MuUsed, mu)
		}
		if math.Abs(a.resp.Value-ref.chainLimit(a.target)) > chainBand(mu, checkDelta, a.resp.PlannedSteps) {
			outside++
		}
	}
	if len(w.answers) > 0 && float64(outside) > checkDelta*float64(len(w.answers)) {
		b.fail("cold-plan: %d of %d estimates outside their Eq. 14 band around the chain limit", outside, len(w.answers))
	}
	ph.extra["checked_estimates"] = float64(len(w.answers))
}

// layers splits a cold-plan operation on a twin engine: exact μ on an
// unseen target, then the planned chain with μ already cached; and the
// same request over HTTP, whose excess is the HTTP layers' cost.
func (w *coldPlan) layers(b *bench, ph *phase, lm layerMetrics) {
	kernelProbes(b, w.g, weightedTwin(w.g, b.seed), w.probes[0], lm)
	twin, vid, err := twinEngine(edgeList(w.g))
	if err != nil {
		b.fail("cold-plan: %v", err)
		return
	}
	ctx := context.Background()
	// Warm the twin as setup warmed the served session: buffers pooled,
	// nothing else cached.
	if _, err := twin.EstimateContext(ctx, vid(w.warm), core.Options{Seed: opSeed(b.seed, -1)}); err != nil {
		b.fail("cold-plan: twin warm-up: %v", err)
	}
	id := w.sessionID(b.final)
	var muMS, chainMS, estMS, httpMS, steps float64
	for k, t := range w.probes {
		req := fmt.Sprintf("probe-%d", k)
		opts := core.Options{Seed: opSeed(b.seed, -2-k)}
		var planned int
		d := b.tr.do("engine.estimate", 0, req, func(root int64) {
			muMS += ms(b.tr.do("plan.mu", root, req, func(int64) {
				if _, err := twin.MuStatsContext(ctx, vid(t)); err != nil {
					b.fail("cold-plan: MuStatsContext(%d): %v", t, err)
				}
			}))
			chainMS += ms(b.tr.do("mcmc.chain", root, req, func(int64) {
				est, err := twin.EstimateContext(ctx, vid(t), opts)
				if err != nil {
					b.fail("cold-plan: EstimateContext(%d): %v", t, err)
				}
				planned = est.PlannedSteps
			}))
		})
		estMS += ms(d)
		steps += float64(planned)
		var resp engine.EstimateResponse
		var herr error
		httpMS += ms(b.tr.do("http.estimate", 0, req, func(int64) {
			_, herr = b.postJSON("/graphs/"+id+"/estimate", engine.EstimateRequest{Vertex: int64(t), Seed: opts.Seed}, &resp)
		}))
		if herr != nil {
			b.fail("cold-plan: probe request: %v", herr)
		}
	}
	k := float64(len(w.probes))
	lm["plan.mu_ms"] = muMS / k
	lm["plan.share"] = muMS / estMS
	lm["mcmc.step_ns"] = chainMS * 1e6 / steps
	lm["engine.estimate_ms"] = estMS / k
	lm["http.overhead_ms"] = (httpMS - estMS) / k
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
