package compile

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

// ZZTerm is one commuting two-qubit cost gate: CPhase(Theta) between
// logical qubits U and V.
type ZZTerm struct {
	U, V  int
	Theta float64
	// slot is the angle slot the CPhase is tagged with (circuit.Gate.Slot);
	// only ParamSpec.Spec sets it.
	slot int32
}

// LevelSpec describes one QAOA level of a generic commuting cost
// Hamiltonian: the ZZ interactions, optional per-qubit Z phases (RZ
// angles; nil when the Hamiltonian has no linear terms), and the mixer
// angle.
type LevelSpec struct {
	ZZ        []ZZTerm
	Local     []float64
	MixerBeta float64
	// mixerSlot tags the level's mixer RX gates, like ZZTerm.slot.
	mixerSlot int32
}

// gate returns the term's CPhase, tagged with its angle slot.
func (t ZZTerm) gate() circuit.Gate {
	return circuit.Gate{Kind: circuit.CPhase, Slot: t.slot, Q0: t.U, Q1: t.V, Params: [3]float64{t.Theta}}
}

// mixer returns the level's mixer rotation RX(2β) on qubit q, tagged with
// its angle slot.
func (l LevelSpec) mixer(q int) circuit.Gate {
	return circuit.Gate{Kind: circuit.RX, Slot: l.mixerSlot, Q0: q, Q1: -1, Params: [3]float64{2 * l.MixerBeta}}
}

// Spec is a compiler-facing description of a full QAOA circuit for an
// arbitrary Ising-form cost Hamiltonian (§VI "Applicability beyond
// QAOA-MaxCut"): all ZZ terms within a level commute, which is what the
// ordering passes exploit. MaxCut is the special case with unit couplings
// and no linear terms.
type Spec struct {
	N      int
	Levels []LevelSpec
}

// Validate checks qubit indices and level shapes.
func (s Spec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("compile: spec has %d qubits", s.N)
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("compile: spec has no levels")
	}
	for li, l := range s.Levels {
		for _, t := range l.ZZ {
			if t.U < 0 || t.U >= s.N || t.V < 0 || t.V >= s.N || t.U == t.V {
				return fmt.Errorf("compile: level %d has invalid ZZ term (%d,%d)", li, t.U, t.V)
			}
		}
		if l.Local != nil && len(l.Local) != s.N {
			return fmt.Errorf("compile: level %d local terms length %d, want %d", li, len(l.Local), s.N)
		}
	}
	return nil
}

// InteractionGraph returns the union of all ZZ pairs across levels — the
// graph the mapping passes (QAIM, GreedyV) profile.
func (s Spec) InteractionGraph() *graphs.Graph {
	// Every level usually repeats the same pairs: collect the distinct
	// ones in first-occurrence order, then build the graph at its final
	// size in one pass.
	seen := make([]bool, s.N*s.N)
	var edges []graphs.Edge
	if len(s.Levels) > 0 {
		edges = make([]graphs.Edge, 0, len(s.Levels[0].ZZ))
	}
	for _, l := range s.Levels {
		for _, t := range l.ZZ {
			u, v := t.U, t.V
			if u > v {
				u, v = v, u
			}
			if u < 0 || v >= s.N || u == v {
				// Invalid: NewFromEdges reports it as AddEdge would.
				edges = append(edges, graphs.Edge{U: t.U, V: t.V, Weight: 1})
				continue
			}
			if !seen[u*s.N+v] {
				seen[u*s.N+v] = true
				edges = append(edges, graphs.Edge{U: u, V: v, Weight: 1})
			}
		}
	}
	g, err := graphs.NewFromEdges(s.N, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// SpecFromMaxCut converts a MaxCut problem and angle set into the generic
// spec: one ZZ term of angle −γ per edge per level (see qaoa.CostLayer for
// the sign convention) and no linear terms. It is ParamSpecFromMaxCut
// concretized by ParamSpec.Spec, so a concrete compile and a skeleton bind
// share one angle convention.
func SpecFromMaxCut(prob *qaoa.Problem, params qaoa.Params) (Spec, error) {
	ps, err := ParamSpecFromMaxCut(prob, params.P())
	if err != nil {
		return Spec{}, err
	}
	return ps.Spec(params)
}

// RandomTermOrder shuffles a copy of the terms.
func RandomTermOrder(terms []ZZTerm, rng interface{ Shuffle(int, func(i, j int)) }) []ZZTerm {
	out := append([]ZZTerm(nil), terms...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
