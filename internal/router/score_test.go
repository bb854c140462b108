package router

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

// TestDevTablesBitwiseSymmetric asserts the flattened distance and hop
// tables are bitwise symmetric. scoreEdge depends on this: its partner
// arithmetic always indexes the hoisted row of the *swap* endpoint
// (dist[v][other] in place of dist[other][v]), which is bit-identical to
// the reference accumulation only if D[a][b] and D[b][a] carry the same
// bits. Symmetric-weight Floyd–Warshall preserves exact symmetry, and this
// test pins that property for both metrics the router consumes.
func TestDevTablesBitwiseSymmetric(t *testing.T) {
	calibrated := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(5)), 0.02, 0.01)
	cases := []struct {
		name string
		tab  *devTables
	}{
		{"tokyo-hop", devTablesFor(device.Tokyo20(), device.Tokyo20().HopDistances())},
		{"melbourne-hop", devTablesFor(device.Melbourne15(), device.Melbourne15().HopDistances())},
		{"tokyo-reliability", devTablesFor(calibrated, calibrated.ReliabilityDistances())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.tab.n
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if math.Float64bits(tc.tab.dist[a*n+b]) != math.Float64bits(tc.tab.dist[b*n+a]) {
						t.Fatalf("dist[%d][%d] and dist[%d][%d] differ bitwise", a, b, b, a)
					}
					if math.Float64bits(tc.tab.hop[a*n+b]) != math.Float64bits(tc.tab.hop[b*n+a]) {
						t.Fatalf("hop[%d][%d] and hop[%d][%d] differ bitwise", a, b, b, a)
					}
				}
			}
		})
	}
}

// TestScoringKernelZeroAlloc pins the zero-alloc contract of the scoring
// kernel: once the pooled scratch is warm, a bestSwap search plus the
// incremental applySwap update allocate nothing. The measured body applies
// the winning swap twice (an involution restoring the scoring state) so
// every run sees identical state, and resets the emission dirty list the
// way emitReady would without emitting.
func TestScoringKernelZeroAlloc(t *testing.T) {
	dev := device.Tokyo20()
	dist := dev.HopDistances()
	tab := devTablesFor(dev, dist)
	scan := dev.Coupling.Edges()
	layout := TrivialLayout(16, dev.NQubits())

	// Distant pairs so the layer genuinely needs swaps; a near-reversed
	// pattern keeps several candidate edges live.
	var pending, next []circuit.Gate
	for q := 0; q < 8; q++ {
		pending = append(pending, circuit.NewCPhase(q, 15-q, 0.7))
		next = append(next, circuit.NewCPhase(q, (q+7)%16, 0.7))
	}

	sc := getScorer()
	defer putScorer(sc)
	sc.init(tab, 0.5, scan, pending, next, layout)

	if _, _, _, ok := sc.bestSwap(scan); !ok {
		t.Fatal("setup: no improving swap available")
	}
	body := func() {
		sc.dirty = sc.dirty[:0]
		a, b, _, ok := sc.bestSwap(scan)
		if !ok {
			return
		}
		sc.applySwap(a, b)
		sc.applySwap(a, b)
	}
	body() // warm the pooled scratch to its steady-state capacity
	body()
	if allocs := testing.AllocsPerRun(100, body); allocs != 0 {
		t.Errorf("scoring kernel allocated %v times per run, want 0", allocs)
	}
}
