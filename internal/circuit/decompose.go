package circuit

import "math"

// Basis identifies a native gate set for decomposition.
type Basis int

const (
	// BasisIBM is {U1, U2, U3, CNOT} — the native set of the IBM devices
	// targeted in the paper (ibmq_20_tokyo, ibmq_16_melbourne).
	BasisIBM Basis = iota
)

// Decompose rewrites the circuit into the given native basis and returns a
// new circuit. The rewriting is exact up to global phase:
//
//	H          → U2(0, π)
//	X          → U3(π, 0, π)
//	Y          → U3(π, π/2, π/2)
//	Z          → U1(π)
//	RZ(θ)      → U1(θ)
//	RX(θ)      → U3(θ, -π/2, π/2)
//	RY(θ)      → U3(θ, 0, 0)
//	CZ         → U2 · CNOT · U2 on the target (H-conjugation)
//	CPhase(θ)  → CNOT · U1(θ) on target · CNOT   (exact ZZ identity)
//	Swap       → 3 CNOTs
//
// Barriers are dropped; measurements pass through unchanged. A rotation's
// Gate.Slot moves onto the U1 or U3 it lowers to.
func (c *Circuit) Decompose(basis Basis) *Circuit {
	if basis != BasisIBM {
		panic("circuit: unknown basis")
	}
	n := 0
	for _, g := range c.Gates {
		n += nativeLen(g.Kind)
	}
	out := New(c.NQubits)
	out.Gates = make([]Gate, 0, n)
	for _, g := range c.Gates {
		switch g.Kind {
		case H:
			out.Append(NewU2(g.Q0, 0, math.Pi))
		case X:
			out.Append(NewU3(g.Q0, math.Pi, 0, math.Pi))
		case Y:
			out.Append(NewU3(g.Q0, math.Pi, math.Pi/2, math.Pi/2))
		case Z:
			out.Append(NewU1(g.Q0, math.Pi))
		case RZ:
			out.Append(NewU1(g.Q0, g.Params[0]).withSlot(g.Slot))
		case RX:
			out.Append(NewU3(g.Q0, g.Params[0], -math.Pi/2, math.Pi/2).withSlot(g.Slot))
		case RY:
			out.Append(NewU3(g.Q0, g.Params[0], 0, 0).withSlot(g.Slot))
		case U1, U2, U3, CNOT, Measure:
			out.Append(g)
		case CZ:
			out.Append(
				NewU2(g.Q1, 0, math.Pi),
				NewCNOT(g.Q0, g.Q1),
				NewU2(g.Q1, 0, math.Pi),
			)
		case CPhase:
			out.Append(
				NewCNOT(g.Q0, g.Q1),
				NewU1(g.Q1, g.Params[0]).withSlot(g.Slot),
				NewCNOT(g.Q0, g.Q1),
			)
		case Swap:
			out.Append(
				NewCNOT(g.Q0, g.Q1),
				NewCNOT(g.Q1, g.Q0),
				NewCNOT(g.Q0, g.Q1),
			)
		case Barrier:
			// dropped
		default:
			panic("circuit: cannot decompose " + g.Kind.String())
		}
	}
	return out
}

// nativeLen is the number of BasisIBM gates Decompose emits for kind k.
func nativeLen(k Kind) int {
	switch k {
	case CZ, CPhase, Swap:
		return 3
	case Barrier:
		return 0
	default:
		return 1
	}
}

// NativeCNOTCost returns how many native CNOTs the gate kind costs after
// decomposition into BasisIBM. Used by reliability models that only charge
// two-qubit errors.
func NativeCNOTCost(k Kind) int {
	switch k {
	case CNOT, CZ:
		return 1
	case CPhase:
		return 2
	case Swap:
		return 3
	default:
		return 0
	}
}

// withSlot returns g tagged with angle slot s.
func (g Gate) withSlot(s int32) Gate {
	g.Slot = s
	return g
}
