package circuit

import (
	"math/rand"
	"reflect"
	"testing"
)

// referenceLayers is the grow-as-you-go ASAP layering Layers replaced:
// each gate is appended to its step's list, growing the list of lists on
// demand.
func referenceLayers(c *Circuit) [][]int {
	level := make([]int, c.NQubits)
	var layers [][]int
	place := func(t, gate int) {
		for len(layers) <= t {
			layers = append(layers, nil)
		}
		layers[t] = append(layers[t], gate)
	}
	for i, g := range c.Gates {
		switch g.Arity() {
		case 0:
			m := 0
			for _, l := range level {
				m = max(m, l)
			}
			for j := range level {
				level[j] = m
			}
		case 1:
			level[g.Q0]++
			place(level[g.Q0]-1, i)
		case 2:
			l := max(level[g.Q0], level[g.Q1]) + 1
			level[g.Q0], level[g.Q1] = l, l
			place(l-1, i)
		}
	}
	return layers
}

// randomLayerCircuit mixes one- and two-qubit gates with barriers.
func randomLayerCircuit(n, gates int, rng *rand.Rand) *Circuit {
	c := New(n)
	for i := 0; i < gates; i++ {
		switch r := rng.Intn(10); {
		case r == 0:
			c.Append(Gate{Kind: Barrier, Q0: -1, Q1: -1})
		case r < 4:
			c.Append(NewRZ(rng.Intn(n), 0.1))
		default:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.Append(NewCPhase(a, b, 0.3))
		}
	}
	return c
}

// TestLayersMatchReference: the presized Layers and the LayerOf schedule
// reproduce the grow-as-you-go layering exactly, barriers included, and
// LayerOf's step count is the circuit depth.
func TestLayersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := randomLayerCircuit(2+rng.Intn(7), rng.Intn(60), rng)
		want := referenceLayers(c)
		if got := c.Layers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Layers = %v, reference %v", trial, got, want)
		}
		layerOf, steps := c.LayerOf(nil, make([]int, c.NQubits))
		if steps != c.Depth() {
			t.Fatalf("trial %d: LayerOf reports %d steps, Depth %d", trial, steps, c.Depth())
		}
		for ti, layer := range want {
			for _, gi := range layer {
				if layerOf[gi] != ti {
					t.Fatalf("trial %d: gate %d at step %d, reference %d", trial, gi, layerOf[gi], ti)
				}
			}
		}
	}
}

// TestLayersIndependentViews: the layers share one backing array, so an
// append to one layer must not overwrite its neighbour.
func TestLayersIndependentViews(t *testing.T) {
	c := New(2).Append(NewH(0), NewH(1), NewCNOT(0, 1))
	layers := c.Layers()
	first := append([]int(nil), layers[1]...)
	_ = append(layers[0], 99)
	if !reflect.DeepEqual(layers[1], first) {
		t.Fatalf("appending to layer 0 overwrote layer 1: %v", layers[1])
	}
}

// TestDecomposeAllocatesExactly: Decompose sizes its output to the exact
// native gate total, so the lowering never regrows.
func TestDecomposeAllocatesExactly(t *testing.T) {
	c := New(3).Append(
		NewH(0), NewX(1), NewY(2), NewZ(0), NewRX(1, 0.2), NewRY(2, 0.4), NewRZ(0, 0.6),
		NewCZ(0, 1), NewCPhase(1, 2, 0.7), NewSwap(0, 2), NewCNOT(2, 1),
		Gate{Kind: Barrier, Q0: -1, Q1: -1}, NewMeasure(0),
	)
	d := c.Decompose(BasisIBM)
	if len(d.Gates) != cap(d.Gates) {
		t.Fatalf("native circuit has %d gates in a buffer of %d", len(d.Gates), cap(d.Gates))
	}
	if len(d.Gates) != 7+3*3+1+1 {
		t.Fatalf("native gate total %d, want %d", len(d.Gates), 7+3*3+1+1)
	}
}
