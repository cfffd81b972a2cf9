package main

import (
	"math"
	"math/rand/v2"
	"testing"

	"bcmh/internal/graph"
)

// Published exact betweenness of Zachary's karate club under the
// networkx normalisation 2/((n−1)(n−2)) over unordered pairs; the
// repository normalises by 1/(n(n−1)) over ordered pairs, so
// repo = nx·(n−2)/n.
var karateNX = map[int]float64{
	0:  0.437635281385281,
	1:  0.053936688311688,
	2:  0.143656806156806,
	3:  0.011909271284271,
	5:  0.029987373737374,
	8:  0.055926827801828,
	11: 0,
	13: 0.045863395863396,
	19: 0.032475048100048,
	31: 0.138275613275613,
	32: 0.145247113997114,
	33: 0.304074975949976,
}

func TestReferenceKarateMatchesPublished(t *testing.T) {
	g := graph.KarateClub()
	n := g.N()
	ref := referenceColumns(refGraphOf(g))
	for v, nx := range karateNX {
		want := nx * float64(n-2) / float64(n)
		if got := ref.bc(v); math.Abs(got-want) > 1e-9 {
			t.Errorf("vertex %d: bc %.15g, published %.15g", v, got, want)
		}
	}
}

// bruteDependencies enumerates every simple path from s and returns
// δ_s•(v) = Σ_t σ_st(v)/σ_st from the shortest ones.
func bruteDependencies(g *refGraph, s int) []float64 {
	n := g.n()
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	paths := make([][][]int, n) // shortest paths found so far, per end vertex
	onPath := make([]bool, n)
	var walk func(v int, length float64, path []int)
	walk = func(v int, length float64, path []int) {
		if v != s {
			switch {
			case length < best[v]-1e-9:
				best[v] = length
				paths[v] = [][]int{append([]int(nil), path...)}
			case length <= best[v]+1e-9:
				paths[v] = append(paths[v], append([]int(nil), path...))
			}
		}
		for i, w := range g.adj[v] {
			if onPath[w] {
				continue
			}
			step := 1.0
			if g.w != nil {
				step = g.w[v][i]
			}
			onPath[w] = true
			walk(w, length+step, append(path, w))
			onPath[w] = false
		}
	}
	onPath[s] = true
	walk(s, 0, []int{s})
	delta := make([]float64, n)
	for t := 0; t < n; t++ {
		if t == s || len(paths[t]) == 0 {
			continue
		}
		for _, p := range paths[t] {
			for _, v := range p[1 : len(p)-1] {
				delta[v] += 1 / float64(len(paths[t]))
			}
		}
	}
	return delta
}

func randomRefGraph(r *rand.Rand, n int, p float64, weighted bool) *refGraph {
	g := newRefGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				// Small integer weights make ties, the case Brandes must
				// count every shortest path of.
				g.addEdge(u, v, float64(1+r.IntN(3)), weighted)
			}
		}
	}
	return g
}

func TestReferenceMatchesPathEnumeration(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 40; trial++ {
		weighted := trial%2 == 1
		g := randomRefGraph(r, 7, 0.45, weighted)
		if weighted && g.w == nil {
			continue
		}
		b := newRefBrandes(g.n())
		for s := 0; s < g.n(); s++ {
			got := b.run(g, s)
			want := bruteDependencies(g, s)
			for v := range want {
				if v != s && math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("trial %d (weighted %v), source %d, vertex %d: Brandes %.12g, enumeration %.12g", trial, weighted, s, v, got[v], want[v])
				}
			}
		}
	}
}

func TestReferenceColumnStatistics(t *testing.T) {
	// Star with centre 0 and four leaves: every leaf source depends on
	// the centre for the three other leaves, so δ_s•(0) = 3 for each
	// leaf s and 0 for s = 0.
	g := newRefGraph(5)
	for v := 1; v < 5; v++ {
		g.addEdge(0, v, 0, false)
	}
	c := referenceColumns(g)
	if got, want := c.bc(0), 12.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("bc(centre) = %g, want %g", got, want)
	}
	if got, want := c.mu(0), 3/(12.0/5); math.Abs(got-want) > 1e-12 {
		t.Errorf("mu(centre) = %g, want %g", got, want)
	}
	if got, want := c.chainLimit(0), 36.0/(4*12); math.Abs(got-want) > 1e-12 {
		t.Errorf("chainLimit(centre) = %g, want %g", got, want)
	}
}

// The fixed-batch check must accept the estimator's own answers and
// reject a server that answers 0 (a zeroed dependency) or twice BC.
// The estimates are simulated from the reference's dependency columns:
// each is the mean of 48 uniform proposals of f = δ_v•(r)/(n−1).
func TestProposalCheckRejectsWrongAnswers(t *testing.T) {
	g := refGraphOf(graph.KarateClub())
	n := g.n()
	ref := referenceColumns(g)
	targets := []int{0, 2, 31, 32, 33}
	col := map[int][]float64{}
	b := newRefBrandes(n)
	for s := 0; s < n; s++ {
		d := b.run(g, s)
		for _, r := range targets {
			dep := d[r]
			if s == r {
				dep = 0
			}
			col[r] = append(col[r], dep)
		}
	}
	exact := func(k targetKey) exactStats {
		return exactStats{bc: ref.bc(k.v), mu: ref.mu(k.v), f2: ref.meanF2(k.v)}
	}
	rnd := rand.New(rand.NewPCG(7, 11))
	var honest, zero, double []proposalEstimate
	for _, r := range targets {
		for k := 0; k < 20; k++ {
			sum := 0.0
			for i := 0; i < fixedSteps; i++ {
				sum += col[r][rnd.IntN(n)] / float64(n-1)
			}
			key := targetKey{v: r}
			honest = append(honest, proposalEstimate{key: key, value: sum / fixedSteps, steps: fixedSteps})
			zero = append(zero, proposalEstimate{key: key, value: 0, steps: fixedSteps})
			double = append(double, proposalEstimate{key: key, value: 2 * ref.bc(r), steps: fixedSteps})
		}
	}
	outside, total, errs := proposalCheck(honest, exact, checkDelta)
	if total != len(targets) || float64(outside) > checkDelta*float64(total) || len(errs) > 0 {
		t.Errorf("honest answers: %d of %d targets outside, errors %v", outside, total, errs)
	}
	for name, est := range map[string][]proposalEstimate{"zero": zero, "double": double} {
		if outside, total, _ := proposalCheck(est, exact, checkDelta); float64(outside) <= checkDelta*float64(total) {
			t.Errorf("%s answers pass: %d of %d targets outside", name, outside, total)
		}
	}
	// An estimate above μ·BC, the largest value f takes, is an error.
	_, _, errs = proposalCheck([]proposalEstimate{{key: targetKey{v: 0}, value: 1.01 * ref.mu(0) * ref.bc(0), steps: 1}}, exact, checkDelta)
	if len(errs) != 1 {
		t.Errorf("estimate above μ·BC: errors %v, want one", errs)
	}
}
