package graphs

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestNewFromEdgesMatchesIncremental: the presized constructor builds the
// same graph as New plus one AddWeightedEdge per edge — edge order,
// weights, sorted adjacency and lookups — and later mutation of one
// adjacency list leaves the others intact.
func TestNewFromEdgesMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		ref := ErdosRenyi(2+rng.Intn(20), rng.Float64(), rng)
		edges := append([]Edge(nil), ref.Edges()...)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		want := New(ref.N())
		for i := range edges {
			edges[i].Weight = rng.Float64()
			if rng.Intn(2) == 0 {
				edges[i].U, edges[i].V = edges[i].V, edges[i].U
			}
			if err := want.AddWeightedEdge(edges[i].U, edges[i].V, edges[i].Weight); err != nil {
				t.Fatal(err)
			}
		}
		got, err := NewFromEdges(ref.N(), edges)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("trial %d: edges %v, want %v", trial, got.Edges(), want.Edges())
		}
		for v := 0; v < want.N(); v++ {
			if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("trial %d: neighbours of %d %v, want %v", trial, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		for _, e := range edges {
			if w, ok := got.EdgeWeight(e.V, e.U); !ok || w != e.Weight {
				t.Fatalf("trial %d: EdgeWeight(%d,%d) = %v,%v", trial, e.V, e.U, w, ok)
			}
		}
	}

	// Growing one capacity-capped adjacency list must not spill into the
	// next vertex's list.
	g, err := NewFromEdges(4, []Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 3)
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("neighbours of 1 after growing vertex 0: %v", got)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("neighbours of 0: %v", got)
	}
}

// TestNewFromEdgesErrors: invalid and duplicate edges fail as AddEdge
// would.
func TestNewFromEdgesErrors(t *testing.T) {
	for _, edges := range [][]Edge{
		{{U: 0, V: 5}},
		{{U: 1, V: 1}},
		{{U: 0, V: 1}, {U: 1, V: 0}},
		{{U: -1, V: 2}},
	} {
		want := New(3)
		var wantErr error
		for _, e := range edges {
			if wantErr = want.AddWeightedEdge(e.U, e.V, e.Weight); wantErr != nil {
				break
			}
		}
		g, err := NewFromEdges(3, edges)
		if err == nil || g != nil || err.Error() != wantErr.Error() {
			t.Errorf("edges %v: got (%v, %v), want error %v", edges, g, err, wantErr)
		}
	}
}
