package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"bcmh/internal/core"
	"bcmh/internal/durable"
	"bcmh/internal/engine"
	"bcmh/internal/graph"
	"bcmh/internal/mcmc"
	"bcmh/internal/store"
)

// stream-mixed: one closed-loop reader sends fixed-step estimates with
// fresh seeds on a hot set of hub targets (the primary operation),
// while one open-loop writer posts small NDJSON edit batches to
// /graphs/{id}/stream at a fixed rate. The session is durable (a WAL
// under the run directory, interval fsync, the server's default).
//
// The graph is a Barabási–Albert graph. Batches add random non-edges
// and remove only edges the stream itself added, so the graph stays
// connected and no batch has cause to be rejected.
const (
	streamN        = 1200
	streamAttach   = 3
	streamHot      = 2 // hot targets: the top hubs
	streamSteps    = 16
	streamRate     = 60 // edit batches per second
	streamAdds     = 2  // additions per batch
	streamRemoves  = 2  // removals per batch, once the ledger holds enough
	streamKeep     = 16 // stream-added edges kept before removals start
	streamFinal    = 1 << 16
	streamTwinRuns = 200 // batches of the direct write-path probes
)

// ledger is the writer's own record of the graph it has built.
type ledger struct {
	g       *refGraph
	added   [][2]int // stream-added edges still present, oldest first
	r       *rand.Rand
	version uint64
}

func newLedger(g *graph.Graph, r *rand.Rand) *ledger {
	return &ledger{g: refGraphOf(g), r: r}
}

// next draws the next batch without applying it: additions of random
// non-edges, then removals of the oldest stream-added edges.
func (l *ledger) next() []graph.Edit {
	var edits []graph.Edit
	seen := map[[2]int]bool{}
	for len(edits) < streamAdds {
		u, v := l.r.IntN(l.g.n()), l.r.IntN(l.g.n())
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] || l.g.hasEdge(u, v) {
			continue
		}
		seen[[2]int{u, v}] = true
		edits = append(edits, graph.Edit{Op: graph.EditAdd, U: u, V: v})
	}
	if len(l.added) >= streamKeep {
		for _, e := range l.added[:streamRemoves] {
			edits = append(edits, graph.Edit{Op: graph.EditRemove, U: e[0], V: e[1]})
		}
	}
	return edits
}

// apply records an applied batch.
func (l *ledger) apply(edits []graph.Edit) {
	for _, e := range edits {
		if e.Op == graph.EditAdd {
			l.g.addEdge(e.U, e.V, 0, false)
			l.added = append(l.added, [2]int{e.U, e.V})
		} else {
			l.g.removeEdge(e.U, e.V)
			l.added = l.added[1:]
		}
	}
	l.version++
}

// graph returns the ledger's graph as a CSR.
func (l *ledger) graph() (*graph.Graph, error) {
	var edges [][2]int
	for u, a := range l.g.adj {
		for _, v := range a {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return graph.FromEdges(l.g.n(), edges)
}

func streamBody(edits []graph.Edit) []byte {
	req := store.MutateRequest{Edits: make([]store.EditRequest, len(edits))}
	for i, e := range edits {
		req.Edits[i] = store.EditRequest{Op: e.Op.String(), U: int64(e.U), V: int64(e.V)}
	}
	data, _ := json.Marshal(req) // plain structs always encode
	return append(data, '\n')
}

type streamMixed struct {
	g        *graph.Graph // the graph as generated, before any edit
	hot      []int
	led      *ledger
	lastG    *graph.Graph // serving graph seen after the last write
	compact  int          // overlay folds observed
	writes   sample       // edit-batch latency from the due time, ms, across phases
	lateness sample       // send time minus due time, ms, across phases
	next     int          // index of the next read, across phases
	mu       sync.Mutex
}

func (w *streamMixed) durable() bool   { return true }
func (w *streamMixed) primary() string { return "read" }
func (w *streamMixed) id(round int) string {
	return fmt.Sprintf("stream-mixed-%d", round)
}

func (w *streamMixed) setup(b *bench, round int) error {
	w.g = baGraph(streamN, streamAttach, b.seed)
	hub, _, _ := degreeClasses(w.g)
	w.hot = append([]int(nil), hub[:streamHot]...)
	id := w.id(round)
	if err := b.upload(id, edgeList(w.g)); err != nil {
		return err
	}
	w.led = newLedger(w.g, newRand(b.seed, 2))
	w.lastG = nil
	_, err := b.postJSON("/graphs/"+id+"/estimate",
		engine.EstimateRequest{Vertex: int64(w.hot[0]), Steps: streamSteps, Seed: opSeed(b.seed, -1)}, &engine.EstimateResponse{})
	return err
}

func (w *streamMixed) discard(b *bench, round int) error { return b.deleteSession(w.id(round)) }

// write posts one batch and checks its result line.
func (w *streamMixed) write(b *bench, id string, edits []graph.Edit) error {
	data, err := b.call(http.MethodPost, "/graphs/"+id+"/stream", "application/x-ndjson", streamBody(edits))
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	var line store.StreamLine
	var sum store.StreamSummary
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &line) != nil || !sc.Scan() || json.Unmarshal(sc.Bytes(), &sum) != nil || !sum.Done {
		return fmt.Errorf("malformed stream reply %q", data)
	}
	if !line.Applied {
		return fmt.Errorf("batch rejected: %s", line.Error)
	}
	return nil
}

// observeCompaction counts the overlay folds: a fold installs a fresh
// CSR under the same version, which a stream batch never does.
func (w *streamMixed) observeCompaction(b *bench, id string) {
	sess, err := b.st.Get(id)
	if err != nil {
		return
	}
	g := sess.Engine().Graph()
	if w.lastG != nil && !graph.SameStorage(w.lastG, g) {
		w.compact++
	}
	w.lastG = g
}

func (w *streamMixed) measure(b *bench, ph *phase, until time.Time, minOps int) {
	id := w.id(b.final)
	var pool *mcmc.BufferPool
	if sess, err := b.st.Get(id); err == nil {
		pool = sess.Engine().Snapshot().Pool
	}
	var c0, d0 uint64
	if pool != nil {
		c0, d0 = pool.CarryStats()
	}
	compact0 := w.compact
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		openLoop(ph.start, time.Second/streamRate, until, func(k int) error {
			edits := w.led.next()
			var err error
			b.tr.do("http.stream", 0, fmt.Sprintf("write-%d", w.led.version), func(int64) { err = w.write(b, id, edits) })
			if err != nil {
				return err
			}
			w.led.apply(edits)
			w.observeCompaction(b, id)
			return nil
		}, func(fromDue, late time.Duration, err error) {
			ph.record("write", fromDue, err)
			if err == nil {
				w.writes = append(w.writes, ms(fromDue))
			}
			w.lateness = append(w.lateness, ms(late))
		})
	}()
	closedLoop(ph, "read", 1, until, minOps, func() error {
		w.mu.Lock()
		i := w.next
		w.next++
		w.mu.Unlock()
		var resp engine.EstimateResponse
		var nb int
		var err error
		b.tr.do("http.estimate", 0, fmt.Sprintf("read-%d", i), func(int64) {
			nb, err = b.postJSON("/graphs/"+id+"/estimate",
				engine.EstimateRequest{Vertex: int64(w.hot[i%streamHot]), Steps: streamSteps, Seed: opSeed(b.seed, i)}, &resp)
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
		return nil
	})
	wg.Wait()
	if pool != nil {
		c1, d1 := pool.CarryStats()
		ph.extra["mcmc.memo_carried"] = float64(c1 - c0)
		ph.extra["mcmc.memo_discarded"] = float64(d1 - d0)
	}
	ph.extra["graph.compactions"] = float64(w.compact - compact0)
	// Write latency covers every phase of the run so far: a traced run's
	// halves have 600 batches each, too few for a p99.
	late, _ := w.lateness.percentile(0.99)
	ph.extra["writer.lateness_ms"] = late
	ph.extra["write_p50_ms"], _ = w.writes.percentile(0.5)
	if p99, ok := w.writes.percentile(0.99); ok {
		ph.extra["write_p99_ms"] = p99
	}
}

// check verifies the final state against the writer's ledger, the
// final-state estimates against a reference on the ledger's graph, and
// that the session recovered from the data directory has the ledger's
// version and edge count. The recovered store then serves the rest of
// the run.
func (w *streamMixed) check(b *bench, ph *phase) {
	id := w.id(b.final)
	var info store.Info
	if _, err := b.getJSON("/graphs/"+id, &info); err != nil {
		b.fail("stream-mixed: reading the final state: %v", err)
		return
	}
	if info.N != w.led.g.n() || info.M != w.led.g.m() || info.Version != w.led.version {
		b.fail("stream-mixed: final state n=%d m=%d version=%d, ledger n=%d m=%d version=%d",
			info.N, info.M, info.Version, w.led.g.n(), w.led.g.m(), w.led.version)
	}
	ref := referenceColumns(w.led.g)
	outside := 0
	for k, t := range w.hot {
		var resp engine.EstimateResponse
		if _, err := b.postJSON("/graphs/"+id+"/estimate",
			engine.EstimateRequest{Vertex: int64(t), Steps: streamFinal, Seed: opSeed(b.seed, -100-k)}, &resp); err != nil {
			b.fail("stream-mixed: final estimate: %v", err)
			continue
		}
		if math.Abs(resp.Value-ref.chainLimit(t)) > chainBand(ref.mu(t), checkDelta, streamFinal) {
			outside++
		}
	}
	if float64(outside) > checkDelta*float64(len(w.hot)) {
		b.fail("stream-mixed: %d of %d final-state estimates outside their band around the chain limit", outside, len(w.hot))
	}

	b.stopServer()
	t0 := time.Now()
	dm, err := durable.NewManager(durable.Options{Dir: filepath.Join(b.dir, "data"), Fsync: durable.FsyncInterval})
	if err != nil {
		b.fail("stream-mixed: reopening the data directory: %v", err)
		return
	}
	st, err := store.Open(store.Config{Durable: dm})
	if err != nil {
		b.fail("stream-mixed: recovery: %v", err)
		return
	}
	ph.extra["durable.recover_ms"] = ms(time.Since(t0))
	b.st = st
	b.srv = httptest.NewServer(store.NewServer(st, ""))
	sess, err := st.Get(id)
	if err != nil {
		b.fail("stream-mixed: recovered store lacks session %q: %v", id, err)
		return
	}
	if sess.Version() != w.led.version || sess.Engine().Graph().M() != w.led.g.m() {
		b.fail("stream-mixed: recovered version %d m=%d, ledger version %d m=%d",
			sess.Version(), sess.Engine().Graph().M(), w.led.version, w.led.g.m())
	}
}

// layers times the write path's layers directly on twins, and the read
// directly on a twin engine of the final graph against the same read
// over HTTP.
func (w *streamMixed) layers(b *bench, ph *phase, lm layerMetrics) {
	kernelProbes(b, w.g, weightedTwin(w.g, b.seed), w.hot[0], lm)
	w.writePathProbes(b, lm)

	final, err := w.led.graph()
	if err != nil {
		b.fail("stream-mixed: ledger graph: %v", err)
		return
	}
	twin, err := engine.NewWithConfig(final, engine.Config{ResultCacheSize: -1})
	if err != nil {
		b.fail("stream-mixed: twin engine: %v", err)
		return
	}
	ctx := context.Background()
	id := w.id(b.final)
	var directMS, httpMS float64
	const probes = 8
	for k := 0; k < probes; k++ {
		t := w.hot[k%streamHot]
		req := fmt.Sprintf("probe-%d", k)
		for pass, seed := range []uint64{opSeed(b.seed, -200-2*k), opSeed(b.seed, -201-2*k)} {
			// The first pass warms both sides' chain memos for t.
			d := b.tr.do("engine.estimate", 0, req, func(int64) {
				if _, err := twin.EstimateContext(ctx, t, core.Options{Steps: streamSteps, Seed: seed}); err != nil {
					b.fail("stream-mixed: EstimateContext: %v", err)
				}
			})
			var herr error
			h := b.tr.do("http.estimate", 0, req, func(int64) {
				_, herr = b.postJSON("/graphs/"+id+"/estimate",
					engine.EstimateRequest{Vertex: int64(t), Steps: streamSteps, Seed: seed}, &engine.EstimateResponse{})
			})
			if herr != nil {
				b.fail("stream-mixed: probe read: %v", herr)
			}
			if pass == 1 {
				directMS += ms(d)
				httpMS += ms(h)
			}
		}
	}
	lm["engine.estimate_ms"] = directMS / probes
	lm["mcmc.step_ns"] = directMS / probes * 1e6 / streamSteps
	lm["http.overhead_ms"] = (httpMS - directMS) / probes
}

// writePathProbes applies one twin ledger's batches through each layer
// of the write path in turn: Store.StreamBatch on a durable twin
// session, then graph.ApplyEditsOverlay, Engine.StreamSwap and
// Log.Append one by one.
func (w *streamMixed) writePathProbes(b *bench, lm layerMetrics) {
	dm, err := durable.NewManager(durable.Options{Dir: filepath.Join(b.dir, "twin"), Fsync: durable.FsyncInterval})
	if err != nil {
		b.fail("stream-mixed: twin data directory: %v", err)
		return
	}
	st := store.New(store.Config{Durable: dm})
	defer st.Close()
	sess, err := st.CreateFromGraph("twin", w.g, nil, false)
	if err != nil {
		b.fail("stream-mixed: twin session: %v", err)
		return
	}
	eng, err := engine.New(w.g)
	if err != nil {
		b.fail("stream-mixed: twin engine: %v", err)
		return
	}
	lg, err := dm.Create("twinlog", w.g, nil)
	if err != nil {
		b.fail("stream-mixed: twin log: %v", err)
		return
	}
	defer lg.Close()
	led := newLedger(w.g, newRand(b.seed, 3))
	cur := eng.Graph()
	var affected float64
	for k := 0; k < streamTwinRuns; k++ {
		edits := led.next()
		req := fmt.Sprintf("twin-%d", k)
		b.tr.do("store.stream_batch", 0, req, func(int64) {
			if _, err := st.StreamBatch(sess, edits, nil); err != nil {
				b.fail("stream-mixed: StreamBatch: %v", err)
			}
		})
		var next *graph.Graph
		var rep *graph.EditReport
		b.tr.do("graph.overlay_apply", 0, req, func(int64) { next, rep, err = graph.ApplyEditsOverlay(cur, edits) })
		if err != nil {
			b.fail("stream-mixed: ApplyEditsOverlay: %v", err)
			return
		}
		b.tr.do("engine.stream_swap", 0, req, func(int64) {
			swap, err := eng.StreamSwap(next, rep.Pairs)
			if err != nil {
				b.fail("stream-mixed: StreamSwap: %v", err)
			}
			affected += float64(swap.Affected)
		})
		b.tr.do("durable.append", 0, req, func(int64) {
			if err := lg.Append(uint64(k), uint64(k+1), edits); err != nil {
				b.fail("stream-mixed: Append: %v", err)
			}
		})
		cur = next
		led.apply(edits)
	}
	spans := b.tr.snapshot()
	lm["store.stream_batch_us"] = meanSpanMS(spans, "store.stream_batch") * 1e3
	lm["graph.overlay_apply_us"] = meanSpanMS(spans, "graph.overlay_apply") * 1e3
	lm["engine.stream_swap_us"] = meanSpanMS(spans, "engine.stream_swap") * 1e3
	lm["durable.append_us"] = meanSpanMS(spans, "durable.append") * 1e3
	lm["engine.affected_per_batch"] = affected / streamTwinRuns
}

// openLoop calls send for batch k = 0, 1, … at its due time
// start + k·interval, or at once when the previous call ran past it,
// until a batch would fall due after until. Each batch is timed from
// its due time, not from when it was sent, so a stall counts against
// every batch it delays; late is how far behind schedule it was sent.
func openLoop(start time.Time, interval time.Duration, until time.Time, send func(k int) error,
	record func(fromDue, late time.Duration, err error)) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.After(until) {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := send(k)
		record(time.Since(due), sent.Sub(due), err)
	}
}
