package circuit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtKindString, fmtGateString and fmtCircuitString are the fmt-based
// renderers Gate.String and Circuit.String replaced; the appending
// renderers must reproduce them byte for byte.
func fmtKindString(k Kind) string {
	if int(k) >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

func fmtGateString(g Gate) string {
	s := fmtKindString(g.Kind)
	if n := g.Kind.NumParams(); n > 0 {
		s += "("
		for i := 0; i < n; i++ {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%.5f", g.Params[i])
		}
		s += ")"
	}
	switch g.Arity() {
	case 1:
		s += fmt.Sprintf(" q[%d]", g.Q0)
	case 2:
		s += fmt.Sprintf(" q[%d],q[%d]", g.Q0, g.Q1)
	}
	return s
}

func fmtCircuitString(c *Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NQubits)
	for _, g := range c.Gates {
		b.WriteString(fmtGateString(g))
		b.WriteString(";\n")
	}
	return b.String()
}

func TestTextMatchesFmtRendering(t *testing.T) {
	kinds := []Kind{Kind(-3), Kind(len(kindNames)), Kind(99)}
	for k := Invalid; k <= Barrier; k++ {
		kinds = append(kinds, k)
	}
	params := []float64{0, math.Copysign(0, -1), 0.785398, -math.Pi, 1e300, -1e300, 1e-300,
		-1e-300, 5e-6, -4.999e-6, 123456.789, math.NaN(), math.Inf(1), math.Inf(-1)}
	qubits := []int{0, 7, -1, -42, 1 << 20, math.MaxInt, math.MinInt}

	c := &Circuit{NQubits: 1 << 20}
	for _, k := range kinds {
		for i, p := range params {
			q0 := qubits[i%len(qubits)]
			q1 := qubits[(i+3)%len(qubits)]
			g := Gate{Kind: k, Slot: int32(i), Q0: q0, Q1: q1, Params: [3]float64{p, params[(i+1)%len(params)], params[(i+5)%len(params)]}}
			if got, want := g.String(), fmtGateString(g); got != want {
				t.Errorf("Gate%+v.String() = %q, fmt oracle %q", g, got, want)
			}
			c.Gates = append(c.Gates, g)
		}
	}
	if got, want := c.String(), fmtCircuitString(c); got != want {
		t.Errorf("Circuit.String differs from the fmt oracle:\n got %q\nwant %q", got, want)
	}
	for _, n := range []int{0, 1, 1 << 40} {
		empty := &Circuit{NQubits: n}
		if got, want := empty.String(), fmtCircuitString(empty); got != want {
			t.Errorf("empty circuit over %d qubits: %q, fmt oracle %q", n, got, want)
		}
	}
	for _, k := range kinds {
		if got, want := k.String(), fmtKindString(k); got != want {
			t.Errorf("Kind(%d).String() = %q, fmt oracle %q", int(k), got, want)
		}
	}
}
