package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bcmh/internal/durable"
	"bcmh/internal/store"
)

// Fixed run shape.
const (
	// A run sets its workload up at least minSetupRounds times and
	// until the setups took minSetupSeconds together, at most
	// maxSetupRounds times; setup_s is the median. Cheap setups are
	// repeated more, so disk and scheduler noise averages out.
	minSetupRounds  = 9
	maxSetupRounds  = 200
	minSetupSeconds = 2.0
	// minPrimaryOps is the fewest primary operations a measured phase
	// completes: at 100, ten samples lie beyond p90. A phase that has
	// not reached it when its time is up runs on until it has.
	minPrimaryOps = 100
	// buildDir holds everything a run writes, relative to the checkout.
	buildDir = ".bench_build"
)

// workload is one traffic mix against the server.
type workload interface {
	// durable reports whether the store persists sessions to disk.
	durable() bool
	// setup generates the workload's graph from the seed, uploads it
	// under a session id derived from round, builds the session and
	// runs one warm-up operation outside the measured set. It is timed.
	setup(b *bench, round int) error
	// discard deletes the sessions of an earlier setup round.
	discard(b *bench, round int) error
	// primary names the primary operation class.
	primary() string
	// measure runs the measured phase until the deadline (and at least
	// minOps primary operations), recording into ph.
	measure(b *bench, ph *phase, until time.Time, minOps int)
	// check verifies the phase's answers and the final state; each
	// failure is recorded with b.fail.
	check(b *bench, ph *phase)
	// layers runs the traced run's direct per-layer probes after the
	// traced phase and adds their metrics to lm.
	layers(b *bench, ph *phase, lm layerMetrics)
}

// workloads maps the names BENCHMARK.json lists to their constructors.
var workloads = map[string]func() workload{
	"cold-plan":    func() workload { return &coldPlan{} },
	"fixed-batch":  func() workload { return &fixedBatch{} },
	"stream-mixed": func() workload { return &streamMixed{} },
	"rank-topk":    func() workload { return &rankTopK{} },
}

// bench is one run: the in-process server, its HTTP client, the
// workload seed and the span recorder (nil when untraced).
type bench struct {
	name    string
	seed    uint64
	seconds int
	traced  bool

	dir    string // per-run scratch directory under buildDir
	final  int    // setup round whose sessions the measured phase uses
	st     *store.Store
	srv    *httptest.Server
	client *http.Client
	tr     *tracer

	mu       sync.Mutex
	failures []string
}

func newBench(name string, seed uint64, seconds int, traced bool) (*bench, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{name: name, seed: seed, seconds: seconds, traced: traced, dir: dir}, nil
}

// startServer opens the store (durable under the run directory when
// the workload asks) and serves its handler on a loopback port.
func (b *bench) startServer(persist bool) error {
	cfg := store.Config{}
	if persist {
		dm, err := durable.NewManager(durable.Options{Dir: filepath.Join(b.dir, "data"), Fsync: durable.FsyncInterval})
		if err != nil {
			return err
		}
		cfg.Durable = dm
	}
	b.st = store.New(cfg)
	b.srv = httptest.NewServer(store.NewServer(b.st, ""))
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 170 * time.Second}
	return nil
}

func (b *bench) stopServer() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.st != nil {
		b.st.Close()
		b.st = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

func (b *bench) close() {
	b.stopServer()
	_ = os.RemoveAll(b.dir)
}

// fail records a correctness failure.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// call sends one request and returns the reply body. A transport error
// and a non-2xx status are errors.
func (b *bench) call(method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, b.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return data, err
	}
	if resp.StatusCode/100 != 2 {
		return data, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// getJSON and postJSON decode a JSON reply into out; a reply that does
// not decode is an error. They return the reply's size in bytes.
func (b *bench) getJSON(path string, out any) (int, error) {
	data, err := b.call(http.MethodGet, path, "", nil)
	return decodeReply(data, err, out)
}

func (b *bench) postJSON(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	data, err := b.call(http.MethodPost, path, "application/json", body)
	return decodeReply(data, err, out)
}

func decodeReply(data []byte, err error, out any) (int, error) {
	if err != nil {
		return len(data), err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return len(data), fmt.Errorf("malformed reply: %v", err)
	}
	return len(data), nil
}

// upload creates a session from an edge list.
func (b *bench) upload(id string, edgeList []byte) error {
	_, err := b.call(http.MethodPost, "/graphs?id="+id, "text/plain", edgeList)
	return err
}

func (b *bench) deleteSession(id string) error {
	_, err := b.call(http.MethodDelete, "/graphs/"+id, "", nil)
	return err
}

// opClass accumulates one class of operations of a phase.
type opClass struct {
	lat       sample // latency of completed operations, ms
	attempted int
	failed    int
	firstErr  string
}

// phase is one measured interval.
type phase struct {
	mu     sync.Mutex
	ops    map[string]*opClass
	order  []string
	start  time.Time
	end    time.Time
	cpu    time.Duration // process user+sys CPU over the phase
	mem0   runtime.MemStats
	mem1   runtime.MemStats
	heapMB float64            // live heap after a forced GC at the end
	sums   map[string]float64 // counters summed over the replies
	extra  map[string]float64 // other figures of the phase, by metric name
}

func newPhase() *phase {
	return &phase{ops: map[string]*opClass{}, sums: map[string]float64{}, extra: map[string]float64{}}
}

// add sums a reply counter.
func (p *phase) add(key string, v float64) {
	p.mu.Lock()
	p.sums[key] += v
	p.mu.Unlock()
}

func (p *phase) class(name string) *opClass {
	c, ok := p.ops[name]
	if !ok {
		c = &opClass{}
		p.ops[name] = c
		p.order = append(p.order, name)
	}
	return c
}

// record adds one operation outcome.
func (p *phase) record(class string, lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(class)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = err.Error()
		}
		return
	}
	c.lat = append(c.lat, float64(lat.Nanoseconds())/1e6)
}

// completed returns the successful operations of a class so far.
func (p *phase) completed(class string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.class(class).lat)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phase) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	p.cpu = cpuTime()
	p.start = time.Now()
}

func (p *phase) finish() {
	p.end = time.Now()
	p.cpu = cpuTime() - p.cpu
	runtime.ReadMemStats(&p.mem1)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / 1e6
}

func (p *phase) seconds() float64 { return p.end.Sub(p.start).Seconds() }

// closedLoop runs clients closed-loop callers of op until the deadline
// has passed and at least minOps operations of class have completed.
// Each workload numbers its operations itself, across the phases of a
// run, so the inputs a run consumes are a prefix of one sequence
// generated from the seed. A phase whose operations keep failing stops
// at the deadline plus a grace period.
func closedLoop(ph *phase, class string, clients int, until time.Time, minOps int, op func() error) {
	hardStop := until.Add(60 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hardStop) || (now.After(until) && ph.completed(class) >= minOps) {
					return
				}
				t0 := time.Now()
				err := op()
				ph.record(class, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
}

// run executes the whole benchmark for one workload.
func (b *bench) run(w workload) (*result, error) {
	if err := b.startServer(w.durable()); err != nil {
		return nil, err
	}
	if b.traced {
		b.tr = newTracer()
	}
	var setups []float64
	total := 0.0
	for r := 0; r < maxSetupRounds && (r < minSetupRounds || total < minSetupSeconds); r++ {
		if r > 0 {
			if err := w.discard(b, r-1); err != nil {
				return nil, fmt.Errorf("discarding setup round %d: %w", r-1, err)
			}
		}
		t0 := time.Now()
		if err := w.setup(b, r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[r]
		b.final = r
	}

	if !b.traced {
		ph := newPhase()
		ph.begin()
		w.measure(b, ph, ph.start.Add(time.Duration(b.seconds)*time.Second), minPrimaryOps)
		ph.finish()
		w.check(b, ph)
		if _, ok := ph.class(w.primary()).lat.percentile(0.9); !ok {
			b.fail("%d %s operations completed: p90 needs %d", len(ph.class(w.primary()).lat), w.primary(), minSamplesFor(0.9))
		}
		res := b.summary(w.primary(), endToEnd(ph, w.primary(), median(setups)), ph)
		printTable(b, ph, w.primary(), res.Metrics, setups)
		return res, nil
	}

	// Traced run: the first half untraced, the second half with spans
	// around every call, then the direct per-layer probes. The
	// difference between the halves is the tracing overhead.
	half := time.Duration(b.seconds) * time.Second / 2
	tr := b.tr
	b.tr = nil
	plain := newPhase()
	plain.begin()
	w.measure(b, plain, plain.start.Add(half), 1)
	plain.finish()
	b.tr = tr
	ph := newPhase()
	ph.begin()
	w.measure(b, ph, ph.start.Add(half), 1)
	ph.finish()
	w.check(b, ph)
	lm := layerMetrics{}
	w.layers(b, ph, lm)
	lm.phaseCommon(ph, w.primary())
	lm.overhead(plain, ph, w.primary())
	res := b.summary(w.primary(), map[string]metric{}, plain, ph)
	for _, d := range perLayerDefs {
		res.Metrics[d.name] = metric{Value: lm[d.name], Unit: d.unit}
	}
	printLayerTable(b, lm)
	if err := b.tr.writeOut(filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", b.name, b.seed))); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	return res, nil
}

// summary counts the operations the phases attempted and failed and
// gives the correctness verdict.
func (b *bench) summary(primary string, metrics map[string]metric, phases ...*phase) *result {
	res := &result{Metrics: metrics}
	for _, ph := range phases {
		for _, name := range ph.order {
			c := ph.ops[name]
			res.Attempted += c.attempted
			res.Failed += c.failed
			if c.failed > 0 {
				fmt.Printf("failed %s operations: %d of %d (first: %s)\n", name, c.failed, c.attempted, c.firstErr)
			}
		}
		if len(ph.class(primary).lat) == 0 {
			b.fail("no %s operation completed", primary)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.failures {
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	res.Correct = len(b.failures) == 0
	return res
}

// endToEnd computes the end-to-end metrics of an untraced phase, each
// over the whole phase.
func endToEnd(ph *phase, primary string, setupS float64) map[string]metric {
	c := ph.class(primary)
	n := float64(len(c.lat))
	p50, _ := c.lat.percentile(0.5)
	p90, _ := c.lat.percentile(0.9)
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {n / ph.seconds(), "op/s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p90_ms": {p90, "ms"},
		"cpu_ms_per_op":  {float64(ph.cpu.Nanoseconds()) / 1e6 / n, "ms"},
		"heap_live_mb":   {ph.heapMB, "MB"},
	}
}

// printTable prints the human-readable end-to-end report.
func printTable(b *bench, ph *phase, primary string, m map[string]metric, setups []float64) {
	fmt.Printf("workload %s seed %d: measured %.2fs, setups %s\n", b.name, b.seed, ph.seconds(), fmtList(setups, "%.3fs"))
	fmt.Printf("%-16s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-16s %14.4f  %-6s %s\n", k, m[k].Value, m[k].Unit, sampleNote(ph, primary, k, len(setups)))
	}
	for _, name := range ph.order {
		c := ph.ops[name]
		fmt.Printf("operations %-10s attempted %6d failed %d  latency ms:", name, c.attempted, c.failed)
		for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			if v, ok := c.lat.percentile(p); ok {
				fmt.Printf(" p%g=%.3f", 100*p, v)
			}
		}
		fmt.Println()
	}
	for _, k := range sortedKeys(ph.extra) {
		fmt.Printf("%-16s %14.4f\n", k, ph.extra[k])
	}
}

func sampleNote(ph *phase, primary, metric string, setups int) string {
	switch metric {
	case "setup_s":
		return fmt.Sprintf("median of %d setups", setups)
	case "heap_live_mb":
		return "1 (after GC at phase end)"
	}
	return fmt.Sprintf("%d %s operations", len(ph.class(primary).lat), primary)
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
