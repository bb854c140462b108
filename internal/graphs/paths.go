package graphs

import (
	"math"
	"sync/atomic"
)

// Inf is the distance reported between disconnected vertex pairs.
var Inf = math.Inf(1)

// DistanceMatrix holds all-pairs shortest-path distances. D[i][j] is the
// length of the shortest path from i to j (Inf if disconnected), and
// Next[i][j] is the first hop on one such shortest path (-1 if none). The
// matrix is produced once per hardware graph (Floyd–Warshall, as in the
// paper) and consulted from memory during compilation.
//
// A matrix is read-only once built. That lets a consumer cache one value
// derived from it on the matrix itself (Derived/SetDerived): the cached
// value then lives exactly as long as the matrix, and dropping the matrix
// — a device's InvalidateCaches, say — drops it too.
type DistanceMatrix struct {
	D    [][]float64
	Next [][]int

	derived atomic.Value
}

// Derived returns the value last cached by SetDerived, or nil. Safe for
// concurrent use.
func (m *DistanceMatrix) Derived() any { return m.derived.Load() }

// SetDerived caches v, a read-only value computed from m, replacing any
// earlier one. Every value stored on one matrix must have the same concrete
// type. Safe for concurrent use.
func (m *DistanceMatrix) SetDerived(v any) { m.derived.Store(v) }

// FloydWarshall computes all-pairs shortest paths. If weighted is true, the
// stored edge weights are used; otherwise every edge counts as 1 hop. The
// variation-aware pass (VIC) runs this on a graph whose edge weights are the
// inverse CPHASE success rates.
func FloydWarshall(g *Graph, weighted bool) *DistanceMatrix {
	n := g.N()
	d := make([][]float64, n)
	next := make([][]int, n)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
		next[i] = make([]int, n)
		for j := 0; j < n; j++ {
			d[i][j] = Inf
			next[i][j] = -1
		}
		d[i][i] = 0
		next[i][i] = i
	}
	for _, e := range g.Edges() {
		w := 1.0
		if weighted {
			w = e.Weight
		}
		if w < d[e.U][e.V] {
			d[e.U][e.V], d[e.V][e.U] = w, w
			next[e.U][e.V], next[e.V][e.U] = e.V, e.U
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			ni := next[i]
			for j := 0; j < n; j++ {
				if via := dik + dk[j]; via < di[j] {
					di[j] = via
					ni[j] = next[i][k]
				}
			}
		}
	}
	return &DistanceMatrix{D: d, Next: next}
}

// Dist returns the shortest-path distance between u and v.
func (m *DistanceMatrix) Dist(u, v int) float64 { return m.D[u][v] }

// Path reconstructs one shortest path from u to v inclusive of both
// endpoints. It returns nil if v is unreachable from u.
func (m *DistanceMatrix) Path(u, v int) []int {
	if m.Next[u][v] == -1 {
		return nil
	}
	path := []int{u}
	for u != v {
		u = m.Next[u][v]
		path = append(path, u)
	}
	return path
}

// BFSDistances returns single-source unweighted (hop) distances from src;
// unreachable vertices get -1. Used as an independent oracle for testing
// Floyd–Warshall and for local neighbourhood queries.
func BFSDistances(g *Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// NeighborhoodSize returns the number of distinct vertices at hop-distance
// between 1 and radius from v. radius=2 yields the paper's "connectivity
// strength" (first plus second neighbours).
func NeighborhoodSize(g *Graph, v, radius int) int {
	dist := BFSDistances(g, v)
	count := 0
	for w, d := range dist {
		if w != v && d > 0 && d <= radius {
			count++
		}
	}
	return count
}
