package main

// The reference computation the benchmark checks the server against. It
// is plain Brandes over the benchmark's own adjacency lists (BFS for
// unweighted graphs, a binary-heap Dijkstra for weighted ones) and
// deliberately imports nothing from internal/sssp or internal/brandes:
// a fault shared by the server's kernels and its own oracle cannot hide
// behind a check that reuses them.

import (
	"container/heap"
	"math"
)

// refGraph is an undirected graph as the benchmark uploaded it: vertex
// ids are the edge-list labels, w is nil for unweighted graphs.
type refGraph struct {
	adj [][]int
	w   [][]float64
}

func newRefGraph(n int) *refGraph { return &refGraph{adj: make([][]int, n)} }

func (g *refGraph) n() int { return len(g.adj) }

func (g *refGraph) m() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

func (g *refGraph) addEdge(u, v int, w float64, weighted bool) {
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	if weighted {
		if g.w == nil {
			g.w = make([][]float64, len(g.adj))
		}
		g.w[u] = append(g.w[u], w)
		g.w[v] = append(g.w[v], w)
	}
}

func (g *refGraph) removeEdge(u, v int) {
	drop := func(a int, b int) {
		for i, x := range g.adj[a] {
			if x == b {
				last := len(g.adj[a]) - 1
				g.adj[a][i] = g.adj[a][last]
				g.adj[a] = g.adj[a][:last]
				if g.w != nil {
					g.w[a][i] = g.w[a][last]
					g.w[a] = g.w[a][:last]
				}
				return
			}
		}
	}
	drop(u, v)
	drop(v, u)
}

func (g *refGraph) hasEdge(u, v int) bool {
	a, b := u, v
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	for _, x := range g.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

// refColumns holds, for every vertex r, the statistics of its dependency
// column δ_·•(r) = (δ_s•(r))_s: the sum, the sum of squares and the
// maximum over sources s. One all-sources Brandes pass yields them for
// every r at once, because the pass from s produces δ_s•(v) for all v.
type refColumns struct {
	n                  int
	sum, sumSq, maxDep []float64
}

// bc is the exact betweenness of r under the repository normalisation
// Σ_{s≠t} σ_st(r)/σ_st / (n(n−1)).
func (c *refColumns) bc(r int) float64 {
	return c.sum[r] / (float64(c.n) * float64(c.n-1))
}

// mu is μ(r) = max_s δ_s•(r) / mean_s δ_s•(r), the quantity the Eq. 14
// planner takes.
func (c *refColumns) mu(r int) float64 {
	if c.sum[r] == 0 {
		return 0
	}
	return c.maxDep[r] / (c.sum[r] / float64(c.n))
}

// meanF2 is E[f²] for f = δ_v•(r)/(n−1) with v uniform over all n
// vertices: the second moment of one proposal-side sample.
func (c *refColumns) meanF2(r int) float64 {
	return c.sumSq[r] / (float64(c.n) * float64(c.n-1) * float64(c.n-1))
}

// chainLimit is Σδ²/((n−1)Σδ), the value the chain-average estimator
// converges to (it is not BC(r)).
func (c *refColumns) chainLimit(r int) float64 {
	if c.sum[r] == 0 {
		return 0
	}
	return c.sumSq[r] / (float64(c.n-1) * c.sum[r])
}

// referenceColumns runs Brandes from every source of g.
func referenceColumns(g *refGraph) *refColumns {
	n := g.n()
	c := &refColumns{n: n, sum: make([]float64, n), sumSq: make([]float64, n), maxDep: make([]float64, n)}
	b := newRefBrandes(n)
	for s := 0; s < n; s++ {
		delta := b.run(g, s)
		for v, d := range delta {
			if v == s || d == 0 {
				continue
			}
			c.sum[v] += d
			c.sumSq[v] += d * d
			if d > c.maxDep[v] {
				c.maxDep[v] = d
			}
		}
	}
	return c
}

// refBrandes is the scratch space of one single-source Brandes pass.
type refBrandes struct {
	dist  []float64
	sigma []float64
	delta []float64
	order []int
	preds [][]int
	queue []int
}

func newRefBrandes(n int) *refBrandes {
	return &refBrandes{
		dist:  make([]float64, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		preds: make([][]int, n),
	}
}

// run returns δ_s•(v) for every v (aliasing scratch space).
func (b *refBrandes) run(g *refGraph, s int) []float64 {
	for v := range b.dist {
		b.dist[v] = math.Inf(1)
		b.sigma[v] = 0
		b.delta[v] = 0
		b.preds[v] = b.preds[v][:0]
	}
	b.order = b.order[:0]
	b.dist[s], b.sigma[s] = 0, 1
	if g.w == nil {
		b.bfs(g, s)
	} else {
		b.dijkstra(g, s)
	}
	for i := len(b.order) - 1; i >= 0; i-- {
		w := b.order[i]
		for _, v := range b.preds[w] {
			b.delta[v] += b.sigma[v] / b.sigma[w] * (1 + b.delta[w])
		}
	}
	return b.delta
}

func (b *refBrandes) bfs(g *refGraph, s int) {
	b.queue = append(b.queue[:0], s)
	for head := 0; head < len(b.queue); head++ {
		v := b.queue[head]
		b.order = append(b.order, v)
		for _, w := range g.adj[v] {
			if math.IsInf(b.dist[w], 1) {
				b.dist[w] = b.dist[v] + 1
				b.queue = append(b.queue, w)
			}
			if b.dist[w] == b.dist[v]+1 {
				b.sigma[w] += b.sigma[v]
				b.preds[w] = append(b.preds[w], v)
			}
		}
	}
}

// tieEps is the relative tolerance under which two weighted path
// lengths count as equal.
const tieEps = 1e-9

func (b *refBrandes) dijkstra(g *refGraph, s int) {
	done := make([]bool, len(g.adj))
	pq := &distHeap{{v: s}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		v := it.v
		if done[v] || it.d > b.dist[v] {
			continue
		}
		done[v] = true
		b.order = append(b.order, v)
		for i, w := range g.adj[v] {
			if done[w] {
				continue
			}
			d := b.dist[v] + g.w[v][i]
			switch {
			case d < b.dist[w]-tieEps*d:
				b.dist[w] = d
				b.sigma[w] = b.sigma[v]
				b.preds[w] = append(b.preds[w][:0], v)
				heap.Push(pq, distItem{v: w, d: d})
			case d <= b.dist[w]+tieEps*d:
				b.sigma[w] += b.sigma[v]
				b.preds[w] = append(b.preds[w], v)
			}
		}
	}
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// chainBand is the Eq. 14 tolerance inverted at T steps: a chain of T
// steps planned for (ε, δ) at μ has ε = μ·√(ln(2/δ)/(2T)). Capped plans
// (T below what Eq. 14 asks for) therefore get a wider band.
func chainBand(mu, delta float64, steps int) float64 {
	return mu * math.Sqrt(math.Log(2/delta)/(2*float64(steps)))
}

// proposalBand is Bernstein's band for the proposal-side estimator
// pooled over n proposals: the mean of n iid values of
// f = δ_v•(r)/(n_G−1), v uniform over the vertices, which lie in
// [0, max δ/(n_G−1)] = [0, μ·BC] and have the exact variance
// E[f²] − BC². The mean lies within the band of BC with probability at
// least 1−δ. The variance term makes the band tight for targets whose
// dependency column is not dominated by a few sources.
func proposalBand(mu, bc, meanF2, delta float64, n int) float64 {
	l := math.Log(2 / delta)
	a := mu * bc * l / (3 * float64(n))
	v := math.Max(meanF2-bc*bc, 0)
	return a + math.Sqrt(a*a+2*v*l/float64(n))
}
