package main

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"strconv"

	"bcmh/internal/graph"
	"bcmh/internal/rng"
)

// δ of every (ε, δ) check: the share of estimates outside their band
// may not exceed it.
const checkDelta = 0.1

// newRand returns the input generator of one stream of a run: the same
// seed and stream give the same inputs.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// opSeed is the chain seed of operation i: fresh per operation, never
// zero, a function of the workload seed alone.
func opSeed(seed uint64, i int) uint64 {
	return newRand(seed, 0x0b5eed+uint64(i)).Uint64() | 1
}

// baGraph is the Barabási–Albert graph of a workload, generated from a
// seed.
func baGraph(n, attach int, seed uint64) *graph.Graph {
	return graph.BarabasiAlbert(n, attach, rng.New(seed))
}

// edgeList renders g as the text body of POST /graphs. Vertex ids are
// the labels, so requests address vertices by the ids the benchmark
// generated; weights print with every digit, so the server and the
// reference see the same numbers.
func edgeList(g *graph.Graph) []byte {
	var buf bytes.Buffer
	g.ForEachEdge(func(u, v int, w float64) {
		buf.WriteString(strconv.Itoa(u))
		buf.WriteByte(' ')
		buf.WriteString(strconv.Itoa(v))
		if g.Weighted() {
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
		}
		buf.WriteByte('\n')
	})
	return buf.Bytes()
}

// refGraphOf copies g into the reference's own adjacency lists.
func refGraphOf(g *graph.Graph) *refGraph {
	rg := newRefGraph(g.N())
	g.ForEachEdge(func(u, v int, w float64) { rg.addEdge(u, v, w, g.Weighted()) })
	return rg
}

// degreeClasses splits the vertices of g by degree rank (ties by id):
// hubs are the top 5%, mid the next 25%, low the rest.
func degreeClasses(g *graph.Graph) (hub, mid, low []int) {
	n := g.N()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return g.Degree(ids[a]) > g.Degree(ids[b]) })
	h, m := n/20, n*30/100
	return ids[:h], ids[h:m], ids[m:]
}

// takeEvery returns k vertices spread evenly over xs.
func takeEvery(xs []int, k int) []int {
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(xs); i++ {
		out = append(out, xs[i*len(xs)/k])
	}
	return out
}
