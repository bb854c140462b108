package compile

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

// allocFixture is the allocation gate's workload: a 20-node Erdős–Rényi
// p=0.3 MaxCut instance on tokyo with the Fig. 11(a) synthetic calibration,
// distance and strength caches warm.
func allocFixture(t testing.TB) (Spec, *device.Device) {
	t.Helper()
	g, err := graphs.ErdosRenyiConnected(20, 0.3, rand.New(rand.NewSource(17)), 100)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := SpecFromMaxCut(prob, qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{0.2}})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(1)), 1e-2, 0.5e-2)
	dev.HopDistances()
	dev.ReliabilityDistances()
	dev.StrengthProfile(2)
	return spec, dev
}

// TestCompileAllocCeiling gates the allocation count of one IC and one VIC
// compile. Both measure 58 allocations per compile (422 and 421 before the
// router tables were memoized and the lowering presized); the ceilings
// leave about 10% for pool refills after a GC, so an allocation
// regression on the compile hot path fails go test.
func TestCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops items at random")
	}
	spec, dev := allocFixture(t)
	for _, tc := range []struct {
		preset  Preset
		ceiling float64
	}{
		{PresetIC, 64},
		{PresetVIC, 64},
	} {
		rng := rand.New(rand.NewSource(5))
		compileOnce := func() {
			if _, err := CompileSpec(spec, dev, tc.preset.Options(rng)); err != nil {
				t.Fatal(err)
			}
		}
		compileOnce() // warm the router pools
		got := testing.AllocsPerRun(50, compileOnce)
		t.Logf("%s: %.0f allocs/compile (ceiling %.0f)", tc.preset, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("%s compile allocates %.0f times, ceiling %.0f", tc.preset, got, tc.ceiling)
		}
	}
}

// BenchmarkCompilePresets compiles the allocation fixture under every
// preset — the per-compile cost mix of the Fig. 7–10 sweeps.
func BenchmarkCompilePresets(b *testing.B) {
	spec, dev := allocFixture(b)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range Presets {
			if _, err := CompileSpec(spec, dev, p.Options(rng)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
