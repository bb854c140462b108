package circuit

import (
	"fmt"
	"strconv"
)

// Circuit is an ordered gate list over a register of NQubits qubits.
type Circuit struct {
	NQubits int
	Gates   []Gate
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NQubits: n}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NQubits: c.NQubits, Gates: make([]Gate, len(c.Gates))}
	copy(out.Gates, c.Gates)
	return out
}

// Append adds gates to the end of the circuit, panicking on invalid qubit
// indices (construction bugs, not runtime conditions).
func (c *Circuit) Append(gs ...Gate) *Circuit {
	for _, g := range gs {
		if err := g.Validate(c.NQubits); err != nil {
			panic(err)
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// AppendCircuit concatenates other's gates onto c ("stitching" in the
// paper's incremental-compilation flow). The register sizes must match.
func (c *Circuit) AppendCircuit(other *Circuit) *Circuit {
	if other.NQubits != c.NQubits {
		panic(fmt.Sprintf("circuit: stitching %d-qubit circuit onto %d-qubit circuit", other.NQubits, c.NQubits))
	}
	c.Gates = append(c.Gates, other.Gates...)
	return c
}

// Len returns the number of gates (barriers included).
func (c *Circuit) Len() int { return len(c.Gates) }

// GateCount returns the number of non-barrier operations.
func (c *Circuit) GateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != Barrier {
			n++
		}
	}
	return n
}

// CountKind returns the number of gates of kind k.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitCount returns the number of two-qubit operations.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Arity() == 2 {
			n++
		}
	}
	return n
}

// Counts returns a histogram of gate kinds.
func (c *Circuit) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.Gates {
		m[g.Kind]++
	}
	return m
}

// Depth returns the length of the critical path: gates are scheduled
// as-soon-as-possible and the number of resulting time steps is returned.
// Barriers synchronize all qubits but occupy no time step of their own.
// Measurements count as ordinary one-qubit operations, matching the paper's
// "including the measurement operations" accounting.
func (c *Circuit) Depth() int {
	level := make([]int, c.NQubits)
	depth := 0
	for _, g := range c.Gates {
		switch g.Arity() {
		case 0: // barrier
			max := 0
			for _, l := range level {
				if l > max {
					max = l
				}
			}
			for i := range level {
				level[i] = max
			}
		case 1:
			level[g.Q0]++
			if level[g.Q0] > depth {
				depth = level[g.Q0]
			}
		case 2:
			l := level[g.Q0]
			if level[g.Q1] > l {
				l = level[g.Q1]
			}
			l++
			level[g.Q0], level[g.Q1] = l, l
			if l > depth {
				depth = l
			}
		}
	}
	return depth
}

// Layers groups gate indices into ASAP time steps: layer t holds the gates
// scheduled at depth t+1, in program order. Barriers are skipped (they only
// synchronize). The layers are capacity-capped views of one backing array.
func (c *Circuit) Layers() [][]int {
	layerOf, n := c.LayerOf(make([]int, 0, len(c.Gates)), make([]int, c.NQubits))
	if n == 0 {
		return nil
	}
	// off[t] counts, then offsets, layer t's slots in flat.
	off := make([]int, n+1)
	for _, t := range layerOf {
		if t >= 0 {
			off[t+1]++
		}
	}
	for t := 0; t < n; t++ {
		off[t+1] += off[t]
	}
	flat := make([]int, off[n])
	layers := make([][]int, n)
	for t := range layers {
		layers[t] = flat[off[t]:off[t]:off[t+1]]
	}
	for i, t := range layerOf {
		if t >= 0 {
			layers[t] = append(layers[t], i)
		}
	}
	return layers
}

// LayerOf appends to dst the ASAP time step of every gate — gate i runs at
// step dst[i] (0-based; -1 for a barrier, which only synchronizes) — and
// returns the extended slice and the number of steps. level is per-qubit
// scratch of at least NQubits entries; it is overwritten. It is the
// schedule Depth measures, shared by Layers and the router's layer plan.
func (c *Circuit) LayerOf(dst, level []int) ([]int, int) {
	level = level[:c.NQubits]
	clear(level)
	steps := 0
	for _, g := range c.Gates {
		t := -1
		switch g.Arity() {
		case 0:
			max := 0
			for _, l := range level {
				if l > max {
					max = l
				}
			}
			for j := range level {
				level[j] = max
			}
		case 1:
			level[g.Q0]++
			t = level[g.Q0] - 1
		case 2:
			l := level[g.Q0]
			if level[g.Q1] > l {
				l = level[g.Q1]
			}
			level[g.Q0], level[g.Q1] = l+1, l+1
			t = l
		}
		if t >= steps {
			steps = t + 1
		}
		dst = append(dst, t)
	}
	return dst, steps
}

// MeasureAll appends a measurement on every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NQubits; q++ {
		c.Append(NewMeasure(q))
	}
	return c
}

// String renders the circuit one gate per line in OpenQASM-like syntax.
// The buffer is sized for a typical native gate line, so a compiled
// circuit renders with one or two allocations.
func (c *Circuit) String() string {
	b := make([]byte, 0, 16+24*len(c.Gates))
	b = strconv.AppendInt(append(b, "qreg q["...), int64(c.NQubits), 10)
	b = append(b, "];\n"...)
	for _, g := range c.Gates {
		b = append(g.appendText(b), ";\n"...)
	}
	return string(b)
}
