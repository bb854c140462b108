package circuit

import "math"

// Peephole returns an optimized copy of c with local gate-level rewrites
// applied, preserving the circuit's unitary up to global phase:
//
//   - adjacent self-inverse pairs cancel (H·H, X·X, Y·Y, Z·Z, CNOT·CNOT,
//     CZ·CZ, SWAP·SWAP on the same operands),
//   - adjacent rotations about the same axis merge (RX/RY/RZ/U1/CPhase),
//   - rotations by multiples of 2π vanish (a global phase at most).
//
// "Adjacent" means no intervening gate touches any shared qubit, so
// cancellations cascade (e.g. the trailing CNOT of a decomposed SWAP
// annihilates the leading CNOT of a following decomposed CPhase on the same
// pair — the rewrite conventional transpilers perform at higher
// optimization levels). Measurements block rewrites on their qubit;
// barriers block rewrites everywhere.
func Peephole(c *Circuit) *Circuit {
	out := make([]Gate, 0, len(c.Gates))
	alive := make([]bool, 0, len(c.Gates))
	// history[q] holds indices into out of alive gates touching q, in order.
	history := make([][]int, c.NQubits)

	last := func(q int) int {
		h := history[q]
		if len(h) == 0 {
			return -1
		}
		return h[len(h)-1]
	}
	pop := func(idx int) {
		alive[idx] = false
		for _, q := range out[idx].Qubits() {
			h := history[q]
			if len(h) > 0 && h[len(h)-1] == idx {
				history[q] = h[:len(h)-1]
			}
		}
	}
	push := func(g Gate) {
		out = append(out, g)
		alive = append(alive, true)
		for _, q := range g.Qubits() {
			history[q] = append(history[q], len(out)-1)
		}
	}

	for _, g := range c.Gates {
		switch {
		case g.Kind == Barrier:
			for q := range history {
				history[q] = nil
			}
			push(g)
			continue
		case g.Kind == Measure:
			push(g)
			continue
		}

		// Zero rotations vanish immediately.
		if isRotation(g.Kind) && negligibleAngle(g.Params[0]) {
			continue
		}

		prev := -1
		switch g.Arity() {
		case 1:
			prev = last(g.Q0)
		case 2:
			p0, p1 := last(g.Q0), last(g.Q1)
			if p0 == p1 {
				prev = p0
			}
		}
		if prev >= 0 && alive[prev] {
			pg := out[prev]
			if cancels(pg, g) {
				pop(prev)
				continue
			}
			if merged, ok := merge(pg, g); ok {
				pop(prev)
				if !(isRotation(merged.Kind) && negligibleAngle(merged.Params[0])) {
					push(merged)
				}
				continue
			}
		}
		push(g)
	}

	res := New(c.NQubits)
	for i, g := range out {
		if alive[i] {
			res.Gates = append(res.Gates, g)
		}
	}
	return res
}

func isRotation(k Kind) bool {
	switch k {
	case RX, RY, RZ, U1, CPhase:
		return true
	}
	return false
}

// negligibleAngle reports whether the rotation is an identity up to global
// phase (angle ≡ 0 mod 2π; U1 and CPhase phases are exactly periodic in 2π,
// RX/RY/RZ(2π) = −I, a pure global phase).
func negligibleAngle(theta float64) bool {
	return math.Abs(NormalizeAngle(theta)) < 1e-12
}

// cancels reports whether g undoes prev exactly (self-inverse pair on the
// same operands).
func cancels(prev, g Gate) bool {
	if prev.Kind != g.Kind {
		return false
	}
	switch g.Kind {
	case H, X, Y, Z:
		return prev.Q0 == g.Q0
	case CNOT:
		return prev.Q0 == g.Q0 && prev.Q1 == g.Q1
	case CZ, Swap:
		return samePair(prev, g)
	}
	return false
}

// merge combines two same-axis rotations on the same operands.
func merge(prev, g Gate) (Gate, bool) {
	if prev.Kind != g.Kind || !isRotation(g.Kind) {
		return Gate{}, false
	}
	switch g.Kind {
	case RX, RY, RZ, U1:
		if prev.Q0 != g.Q0 {
			return Gate{}, false
		}
	case CPhase:
		if !samePair(prev, g) {
			return Gate{}, false
		}
	}
	// The merged angle is the sum of two slots' angles, so it names neither.
	m := prev
	m.Slot = 0
	m.Params[0] = NormalizeAngle(prev.Params[0] + g.Params[0])
	return m, true
}

// samePair reports whether two symmetric two-qubit gates act on the same
// unordered pair.
func samePair(a, b Gate) bool {
	return (a.Q0 == b.Q0 && a.Q1 == b.Q1) || (a.Q0 == b.Q1 && a.Q1 == b.Q0)
}
