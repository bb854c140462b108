package circuit_test

import (
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/qasm"
)

// Angle slots are compile bookkeeping: they must not grow the gate, and a
// tagged circuit must render and export exactly as its untagged twin, so
// no text or QASM output depends on them.
func TestGateSlotIsInvisible(t *testing.T) {
	if size := unsafe.Sizeof(circuit.Gate{}); size != 48 {
		t.Fatalf("circuit.Gate is %d bytes, want 48", size)
	}
	tagged := circuit.New(3).Append(
		circuit.NewH(0),
		circuit.NewCPhase(0, 1, -0.8),
		circuit.NewCPhase(1, 2, -1.6),
		circuit.NewRX(0, 0.5), circuit.NewRX(1, 0.5), circuit.NewRX(2, 0.5),
		circuit.NewMeasure(0),
	)
	for i := range tagged.Gates {
		tagged.Gates[i].Slot = int32(i + 1)
	}
	plain := tagged.Clone()
	for i := range plain.Gates {
		plain.Gates[i].Slot = 0
	}
	for _, pair := range [][2]*circuit.Circuit{{tagged, plain}, {tagged.Decompose(circuit.BasisIBM), plain.Decompose(circuit.BasisIBM)}} {
		if got, want := pair[0].String(), pair[1].String(); got != want {
			t.Errorf("String() depends on slots:\ntagged:\n%s\nplain:\n%s", got, want)
		}
		if got, want := qasm.Export(pair[0]), qasm.Export(pair[1]); got != want {
			t.Errorf("qasm.Export depends on slots:\ntagged:\n%s\nplain:\n%s", got, want)
		}
	}
}
