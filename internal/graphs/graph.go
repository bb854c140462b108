// Package graphs provides the undirected-graph substrate used throughout the
// QAOA compilation study: problem graphs for MaxCut instances, hardware
// coupling graphs, random-graph workload generators, all-pairs shortest
// paths, and an exact MaxCut solver for computing approximation ratios.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected.
// Vertices are dense integers in [0, N). Edges may carry a float64 weight;
// unweighted algorithms treat every edge as weight 1.
package graphs

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between vertices U and V with an optional
// weight. Invariant maintained by Graph: U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Canonical returns the edge with endpoints ordered so that U < V.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graphs: vertex %d not an endpoint of edge (%d,%d)", v, e.U, e.V))
}

// Graph is a simple undirected graph over vertices 0..N-1.
//
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n     int
	adj   [][]int        // adjacency lists, kept sorted
	edges []Edge         // canonical edge list in insertion order
	index map[[2]int]int // canonical endpoints -> index into edges
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	return &Graph{
		n:     n,
		adj:   make([][]int, n),
		index: make(map[[2]int]int),
	}
}

// NewFromEdges returns the graph on n vertices holding edges, added in
// order. The result is the graph New followed by one AddWeightedEdge per
// edge would build — same edge order, same sorted adjacency, same error on
// the first invalid edge — but every adjacency list, the edge list and the
// edge index are allocated once at their final sizes instead of grown edge
// by edge. The adjacency lists are capacity-capped views of one backing
// array, so a later AddEdge reallocates the one list it grows.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	off := make([]int, n+1)
	for _, e := range edges {
		if e.U >= 0 && e.U < n && e.V >= 0 && e.V < n && e.U != e.V {
			off[e.U+1]++
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	g := &Graph{
		n:     n,
		adj:   make([][]int, n),
		index: make(map[[2]int]int, len(edges)),
	}
	if len(edges) > 0 {
		g.edges = make([]Edge, 0, len(edges))
	}
	flat := make([]int, off[n])
	for v := range g.adj {
		if off[v+1] > off[v] { // isolated vertices keep nil lists, as New leaves them
			g.adj[v] = flat[off[v]:off[v]:off[v+1]]
		}
	}
	for _, e := range edges {
		if err := g.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c, err := NewFromEdges(g.n, g.edges)
	if err != nil {
		panic(err) // g's own edges are valid by construction
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list in insertion order. The returned slice must
// not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the sorted adjacency list of v. The returned slice must
// not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := g.index[[2]int{u, v}]
	return ok
}

// EdgeWeight returns the weight of edge (u,v) and whether the edge exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if u > v {
		u, v = v, u
	}
	i, ok := g.index[[2]int{u, v}]
	if !ok {
		return 0, false
	}
	return g.edges[i].Weight, true
}

// AddEdge inserts the unweighted (weight 1) edge (u,v). Inserting an edge
// that already exists, a self-loop, or an edge with an out-of-range endpoint
// is an error.
func (g *Graph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge inserts edge (u,v) with weight w.
func (g *Graph) AddWeightedEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graphs: edge (%d,%d) out of range for %d vertices", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at vertex %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if _, dup := g.index[key]; dup {
		return fmt.Errorf("graphs: duplicate edge (%d,%d)", u, v)
	}
	g.index[key] = len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Weight: w})
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	return nil
}

// MustAddEdge is AddEdge but panics on error; intended for statically-known
// topologies such as hardware coupling graphs.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// SetEdgeWeight updates the weight of an existing edge.
func (g *Graph) SetEdgeWeight(u, v int, w float64) error {
	if u > v {
		u, v = v, u
	}
	i, ok := g.index[[2]int{u, v}]
	if !ok {
		return fmt.Errorf("graphs: no edge (%d,%d)", u, v)
	}
	g.edges[i].Weight = w
	return nil
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Weight
	}
	return s
}

// MaxDegree returns the largest vertex degree (0 for an edgeless graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// IsConnected reports whether the graph is connected (the empty and the
// single-vertex graphs count as connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.n
}

// Triangles returns, for each edge index i, the number of common neighbours
// of the edge's endpoints (the number of triangles through that edge). Used
// by the analytic p=1 MaxCut expectation.
func (g *Graph) Triangles() []int {
	tri := make([]int, len(g.edges))
	for i, e := range g.edges {
		tri[i] = countCommon(g.adj[e.U], g.adj[e.V])
	}
	return tri
}

// String renders the graph as "n=<N> m=<M> edges=[...]".
func (g *Graph) String() string {
	s := fmt.Sprintf("n=%d m=%d edges=[", g.n, g.m())
	for i, e := range g.edges {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("(%d,%d)", e.U, e.V)
	}
	return s + "]"
}

func (g *Graph) m() int { return len(g.edges) }

// insertSorted inserts x into sorted slice s keeping it sorted.
func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// countCommon counts elements present in both sorted slices.
func countCommon(a, b []int) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
