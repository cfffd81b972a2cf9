package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"bcmh/internal/graph"
	"bcmh/internal/jobs"
	"bcmh/internal/rank"
	"bcmh/internal/store"
)

// rank-topk: one closed-loop client submits top-k ranking jobs through
// the asynchronous path (202, then GET /jobs/{jid} until the job ends)
// on a graph above the 512-vertex synchronous cap, with a fresh seed per
// job. Each job is rank's progressive refinement: short chains on every
// surviving candidate, CI pruning, more steps for the survivors.
const (
	rankN          = 600
	rankAttach     = 3
	rankK          = 5
	rankCandidates = 24
	rankInitial    = 128
	rankRounds     = 6
	rankBudget     = 10000
	rankPoll       = 2 * time.Millisecond
)

type rankTopK struct {
	g *graph.Graph

	mu      sync.Mutex
	next    int // index of the next job, across phases
	results []store.RankResult
}

func (w *rankTopK) durable() bool   { return false }
func (w *rankTopK) primary() string { return "rank-job" }
func (w *rankTopK) id(round int) string {
	return fmt.Sprintf("rank-topk-%d", round)
}

func (w *rankTopK) request(seed uint64) store.RankRequest {
	return store.RankRequest{K: rankK, InitialSteps: rankInitial, MaxRounds: rankRounds,
		TotalBudget: rankBudget, MaxCandidates: rankCandidates, Seed: seed}
}

// options mirrors request for a direct rank.Run.
func (w *rankTopK) options(seed uint64) rank.Options {
	return rank.Options{K: rankK, InitialSteps: rankInitial, MaxRounds: rankRounds,
		TotalBudget: rankBudget, MaxCandidates: rankCandidates, Seed: seed}
}

// job submits one ranking job and polls it to its end.
func (w *rankTopK) job(b *bench, id string, seed uint64) (store.RankResult, int, error) {
	var info jobs.Info
	if _, err := b.postJSON("/graphs/"+id+"/rank", w.request(seed), &info); err != nil {
		return store.RankResult{}, 0, err
	}
	for {
		var raw struct {
			jobs.Info
			Result json.RawMessage `json:"result"`
		}
		nb, err := b.getJSON("/jobs/"+info.ID, &raw)
		if err != nil {
			return store.RankResult{}, nb, err
		}
		switch raw.Status {
		case jobs.StatusRunning:
			time.Sleep(rankPoll)
			continue
		case jobs.StatusDone:
			var res store.RankResult
			if err := json.Unmarshal(raw.Result, &res); err != nil || len(res.Top) != rankK {
				return res, nb, fmt.Errorf("malformed job result %s", raw.Result)
			}
			return res, nb, nil
		default:
			return store.RankResult{}, nb, fmt.Errorf("job %s ended %s: %s", info.ID, raw.Status, raw.Error)
		}
	}
}

func (w *rankTopK) setup(b *bench, round int) error {
	w.g = baGraph(rankN, rankAttach, b.seed)
	id := w.id(round)
	if err := b.upload(id, edgeList(w.g)); err != nil {
		return err
	}
	_, _, err := w.job(b, id, opSeed(b.seed, -1))
	return err
}

func (w *rankTopK) discard(b *bench, round int) error { return b.deleteSession(w.id(round)) }

func (w *rankTopK) measure(b *bench, ph *phase, until time.Time, minOps int) {
	id := w.id(b.final)
	closedLoop(ph, "rank-job", 1, until, minOps, func() error {
		w.mu.Lock()
		i := w.next
		w.next++
		w.mu.Unlock()
		var res store.RankResult
		var nb int
		var err error
		b.tr.do("http.rank_job", 0, fmt.Sprintf("job-%d", i), func(int64) { res, nb, err = w.job(b, id, opSeed(b.seed, i)) })
		if err != nil {
			return err
		}
		ph.add("replies", 1)
		ph.add("resp_bytes", float64(nb))
		ph.add("steps", float64(res.TotalSteps))
		w.mu.Lock()
		w.results = append(w.results, res)
		w.mu.Unlock()
		return nil
	})
}

// check holds every returned vertex to the exact k-th largest BC: its
// exact BC may fall below that value by at most the half-width of the
// interval the job reported for it. A true top-k vertex always passes;
// all but a δ share of the returned vertices must.
func (w *rankTopK) check(b *bench, ph *phase) {
	ref := referenceColumns(refGraphOf(w.g))
	exact := make([]float64, w.g.N())
	for v := range exact {
		exact[v] = ref.bc(v)
	}
	sorted := append([]float64(nil), exact...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	kth := sorted[rankK-1]
	w.mu.Lock()
	defer w.mu.Unlock()
	outside, total := 0, 0
	for _, res := range w.results {
		for _, e := range res.Top {
			total++
			if e.Vertex < 0 || int(e.Vertex) >= len(exact) {
				b.fail("rank-topk: returned vertex %d out of range", e.Vertex)
				continue
			}
			if exact[e.Vertex] < kth-(e.Upper-e.Lower)/2 {
				outside++
			}
		}
	}
	if float64(outside) > checkDelta*float64(total) {
		b.fail("rank-topk: %d of %d returned vertices fall further below the exact k-th BC %.6g than their half-width", outside, total, kth)
	}
	ph.extra["checked_vertices"] = float64(total)
}

// layers runs the job's ranking directly on the session's snapshot and
// then the same job over HTTP; the difference is the jobs layer's and
// the HTTP polling's share.
func (w *rankTopK) layers(b *bench, ph *phase, lm layerMetrics) {
	kernelProbes(b, w.g, weightedTwin(w.g, b.seed), 0, lm)
	id := w.id(b.final)
	sess, err := b.st.Get(id)
	if err != nil {
		b.fail("rank-topk: %v", err)
		return
	}
	const probes = 3
	var directMS, httpMS, rounds, steps, pruned float64
	for k := 0; k < probes; k++ {
		seed := opSeed(b.seed, -10-k)
		req := fmt.Sprintf("probe-%d", k)
		snap := sess.Engine().Snapshot()
		directMS += ms(b.tr.do("rank.run", 0, req, func(int64) {
			res, err := rank.Run(context.Background(), snap.Graph, snap.Pool, w.options(seed), nil)
			if err != nil {
				b.fail("rank-topk: rank.Run: %v", err)
			}
			rounds += float64(res.Rounds)
			steps += float64(res.TotalSteps)
			pruned += float64(res.Pruned)
		}))
		var herr error
		httpMS += ms(b.tr.do("http.rank_job", 0, req, func(int64) { _, _, herr = w.job(b, id, seed) }))
		if herr != nil {
			b.fail("rank-topk: probe job: %v", herr)
		}
	}
	lm["rank.job_ms"] = directMS / probes
	lm["rank.rounds"] = rounds / probes
	lm["rank.total_steps"] = steps / probes
	lm["rank.pruned"] = pruned / probes
	lm["jobs.wait_ms"] = (httpMS - directMS) / probes
}
