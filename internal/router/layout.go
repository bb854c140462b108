// Package router implements the conventional backend compiler the paper's
// methodologies feed: it partitions a logical circuit into layers of
// concurrently executable gates and inserts SWAP operations until every
// two-qubit gate acts on a coupled physical pair, tracking the evolving
// logical-to-physical layout (the role played by IBM's qiskit transpiler in
// the paper's experiments).
package router

import (
	"fmt"
	"sync"

	"repro/internal/circuit"
)

// Layout is a bijective logical-to-physical qubit assignment. Physical
// qubits without a logical occupant map to -1.
type Layout struct {
	L2P []int // logical qubit -> physical qubit
	P2L []int // physical qubit -> logical qubit, -1 when free
}

// NewLayout builds a layout for nLogical qubits on nPhysical qubits from the
// logical→physical assignment l2p, validating that it is injective and in
// range.
func NewLayout(nLogical, nPhysical int, l2p []int) (*Layout, error) {
	if len(l2p) != nLogical {
		return nil, fmt.Errorf("router: assignment length %d, want %d", len(l2p), nLogical)
	}
	if nLogical > nPhysical {
		return nil, fmt.Errorf("router: %d logical qubits exceed %d physical", nLogical, nPhysical)
	}
	l := &Layout{
		L2P: append([]int(nil), l2p...),
		P2L: make([]int, nPhysical),
	}
	for p := range l.P2L {
		l.P2L[p] = -1
	}
	for q, p := range l.L2P {
		if p < 0 || p >= nPhysical {
			return nil, fmt.Errorf("router: logical %d mapped to out-of-range physical %d", q, p)
		}
		if l.P2L[p] != -1 {
			return nil, fmt.Errorf("router: physical %d assigned to both logical %d and %d", p, l.P2L[p], q)
		}
		l.P2L[p] = q
	}
	return l, nil
}

// TrivialLayout maps logical qubit i to physical qubit i.
func TrivialLayout(nLogical, nPhysical int) *Layout {
	l2p := make([]int, nLogical)
	for i := range l2p {
		l2p[i] = i
	}
	l, err := NewLayout(nLogical, nPhysical, l2p)
	if err != nil {
		panic(err) // impossible by construction
	}
	return l
}

// Clone returns an independent copy.
func (l *Layout) Clone() *Layout {
	return &Layout{
		L2P: append([]int(nil), l.L2P...),
		P2L: append([]int(nil), l.P2L...),
	}
}

// CloneInto copies l into dst, reusing dst's backing arrays when they are
// large enough, and returns dst.
func (l *Layout) CloneInto(dst *Layout) *Layout {
	dst.L2P = append(dst.L2P[:0], l.L2P...)
	dst.P2L = append(dst.P2L[:0], l.P2L...)
	return dst
}

// layoutPool recycles the working layouts of stochastic routing trials:
// every trial clones the initial layout, but only the winner's final
// layout escapes to the caller, so the losers' go back to the pool.
var layoutPool = sync.Pool{New: func() any { return new(Layout) }}

// getLayout returns a pooled clone of src.
func getLayout(src *Layout) *Layout {
	return src.CloneInto(layoutPool.Get().(*Layout))
}

// putLayout recycles a layout that no longer escapes.
func putLayout(l *Layout) { layoutPool.Put(l) }

// Release hands l's storage to the router's pool for a later routing call
// to reuse. It is for a caller that owns l and is done with it — IC/VIC
// stitching, once a routed final layout supersedes the pack's starting
// one. l must not be used afterwards.
func (l *Layout) Release() { putLayout(l) }

// circuitPool recycles the routed-output circuits of stochastic routing
// trials, the one remaining per-trial allocation of any size: only the
// winning trial's circuit escapes to the caller, so the losers' gate
// buffers go back to the pool.
var circuitPool = sync.Pool{New: func() any { return new(circuit.Circuit) }}

// getCircuit returns a pooled empty circuit over n qubits whose gate
// buffer holds at least capHint gates before growing.
func getCircuit(n, capHint int) *circuit.Circuit {
	c := circuitPool.Get().(*circuit.Circuit)
	c.NQubits = n
	if cap(c.Gates) < capHint {
		c.Gates = make([]circuit.Gate, 0, capHint)
	} else {
		c.Gates = c.Gates[:0]
	}
	return c
}

// putCircuit recycles a circuit that no longer escapes.
func putCircuit(c *circuit.Circuit) { circuitPool.Put(c) }

// NLogical returns the number of logical qubits.
func (l *Layout) NLogical() int { return len(l.L2P) }

// NPhysical returns the number of physical qubits.
func (l *Layout) NPhysical() int { return len(l.P2L) }

// Phys returns the physical qubit holding logical q.
func (l *Layout) Phys(q int) int { return l.L2P[q] }

// LogicalAt returns the logical qubit on physical p, or -1.
func (l *Layout) LogicalAt(p int) int { return l.P2L[p] }

// SwapPhysical exchanges the logical occupants of physical qubits p1, p2
// (either may be free).
func (l *Layout) SwapPhysical(p1, p2 int) {
	q1, q2 := l.P2L[p1], l.P2L[p2]
	l.P2L[p1], l.P2L[p2] = q2, q1
	if q1 != -1 {
		l.L2P[q1] = p2
	}
	if q2 != -1 {
		l.L2P[q2] = p1
	}
}

// Equal reports whether two layouts assign identically.
func (l *Layout) Equal(o *Layout) bool {
	if len(l.L2P) != len(o.L2P) || len(l.P2L) != len(o.P2L) {
		return false
	}
	for i := range l.L2P {
		if l.L2P[i] != o.L2P[i] {
			return false
		}
	}
	return true
}

// String renders the logical→physical map.
func (l *Layout) String() string {
	s := "{"
	for q, p := range l.L2P {
		if q > 0 {
			s += " "
		}
		s += fmt.Sprintf("q%d→%d", q, p)
	}
	return s + "}"
}
