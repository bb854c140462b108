package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuit"
	"repro/internal/obsv"
)

// testNoiseModel returns a model noisy enough that a sizable fraction of
// trajectories draw faults while many stay fault-free — exercising both the
// ideal-reuse and the checkpoint/replay paths of the executor.
func testNoiseModel() *NoiseModel {
	return &NoiseModel{
		OneQubit:        0.01,
		TwoQubitDefault: 0.05,
		Readout:         []float64{0.02, 0.01, 0.03, 0.02, 0.01},
	}
}

// naiveSampleNoisy re-derives the executor's specified semantics with the
// straightforward implementation: every trajectory seeds its private
// substream from one base draw, then runs the whole circuit gate by gate
// with interleaved fault draws, samples its shots and flips readout bits.
// The executor's ideal-reuse and checkpoint/replay shortcuts must reproduce
// this byte for byte.
func naiveSampleNoisy(c *circuit.Circuit, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	if trajectories < 1 {
		trajectories = 1
	}
	if trajectories > shots {
		trajectories = shots
	}
	base := rng.Int63()
	out := make([]uint64, 0, shots)
	nb, extra := shots/trajectories, shots%trajectories
	for t := 0; t < trajectories; t++ {
		k := nb
		if t < extra {
			k++
		}
		if k == 0 {
			continue
		}
		trng := rand.New(rand.NewSource(substreamSeed(base, int64(t))))
		s := RunNoisy(c, nm, trng)
		samples := s.Sample(trng, k)
		flipReadoutAll(samples, nm, trng)
		out = append(out, samples...)
	}
	return out
}

func noisyTestCircuit(n, layers int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for l := 0; l < layers; l++ {
		for q := 0; q+1 < n; q += 2 {
			c.Append(circuit.NewCNOT(q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewRZ(q, rng.Float64()*2))
		}
		for q := 1; q+1 < n; q += 2 {
			c.Append(circuit.NewCZ(q, q+1))
		}
		for q := 0; q < n; q++ {
			c.Append(circuit.NewRX(q, rng.Float64()))
		}
	}
	return c
}

func TestSampleNoisyMatchesNaive(t *testing.T) {
	c := noisyTestCircuit(5, 3, 77)
	nm := testNoiseModel()
	for _, seed := range []int64{1, 2, 3, 11, 12345} {
		want := naiveSampleNoisy(c, nm, 600, 24, rand.New(rand.NewSource(seed)))
		got := NewExecutor(c).SampleNoisy(nm, 600, 24, rand.New(rand.NewSource(seed)))
		if len(want) != len(got) {
			t.Fatalf("seed %d: length %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("seed %d: sample %d = %#x, naive has %#x", seed, i, got[i], want[i])
			}
		}
	}
}

func TestSampleNoisyPackageHelperMatchesExecutor(t *testing.T) {
	c := noisyTestCircuit(4, 2, 5)
	nm := testNoiseModel()
	a := SampleNoisy(c, nm, 300, 10, rand.New(rand.NewSource(9)))
	b := NewExecutor(c).SampleNoisy(nm, 300, 10, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// TestSampleNoisyIndependentOfGOMAXPROCS: the per-trajectory substreams make
// the fan-out schedule irrelevant to the results.
func TestSampleNoisyIndependentOfGOMAXPROCS(t *testing.T) {
	c := noisyTestCircuit(5, 3, 99)
	nm := testNoiseModel()
	run := func(procs int) []uint64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return NewExecutor(c).SampleNoisy(nm, 800, 32, rand.New(rand.NewSource(4242)))
	}
	want := run(1)
	for _, procs := range []int{2, 4, 8} {
		got := run(procs)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("GOMAXPROCS=%d: sample %d = %#x, GOMAXPROCS=1 has %#x", procs, i, got[i], want[i])
			}
		}
	}
}

// TestExecutorIdealReuse: SampleIdeal and fault-free noisy trajectories
// share one ideal execution, and repeated calls never recompute it.
func TestExecutorIdealReuse(t *testing.T) {
	c := noisyTestCircuit(4, 2, 3)
	ex := NewExecutor(c)
	st := ex.Ideal()
	if ex.Ideal() != st {
		t.Fatal("Ideal() recomputed the state")
	}
	want := referenceRun(c)
	if d := maxAmpDiff(want, st); d > 1e-12 {
		t.Fatalf("ideal state deviates from reference by %g", d)
	}
	// With a zero noise model every trajectory reuses the ideal state and the
	// samples match plain ideal sampling draw for draw.
	nm := &NoiseModel{}
	rng1 := rand.New(rand.NewSource(7))
	noisy := ex.SampleNoisy(nm, 200, 8, rng1)
	rng2 := rand.New(rand.NewSource(7))
	base := rng2.Int63()
	var ideal []uint64
	for t9 := 0; t9 < 8; t9++ {
		trng := rand.New(rand.NewSource(substreamSeed(base, int64(t9))))
		drawFaults(c, nm, trng, nil) // advance past the (empty) fault plan draws
		ideal = append(ideal, ex.SampleIdeal(trng, 25)...)
	}
	for i := range ideal {
		if noisy[i] != ideal[i] {
			t.Fatalf("fault-free trajectory sample %d = %#x, ideal draw %#x", i, noisy[i], ideal[i])
		}
	}
}

func TestRunNoisyZeroNoiseMatchesRun(t *testing.T) {
	c := noisyTestCircuit(4, 2, 21)
	want := NewState(4).Run(c)
	got := RunNoisy(c, &NoiseModel{}, rand.New(rand.NewSource(1)))
	if d := maxAmpDiff(want, got); d != 0 {
		t.Fatalf("fault-free RunNoisy deviates from Run by %g", d)
	}
}

func TestSubstreamSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 1 << 40} {
		for t9 := int64(0); t9 < 64; t9++ {
			s := substreamSeed(base, t9)
			if s < 0 {
				t.Fatalf("negative seed %d", s)
			}
			if seen[s] {
				t.Fatalf("substream collision at base=%d t=%d", base, t9)
			}
			seen[s] = true
		}
	}
}

func TestSampleIntoMatchesSample(t *testing.T) {
	s := RandomState(6, rand.New(rand.NewSource(8)))
	want := s.Sample(rand.New(rand.NewSource(31)), 500)
	cdf := make([]float64, len(s.Amp))
	out := s.SampleInto(rand.New(rand.NewSource(31)), 500, make([]uint64, 0, 500), cdf)
	if len(want) != len(out) {
		t.Fatalf("length %d vs %d", len(out), len(want))
	}
	for i := range want {
		if want[i] != out[i] {
			t.Fatalf("sample %d differs: %#x vs %#x", i, out[i], want[i])
		}
	}
}

func TestSampleIntoZeroAlloc(t *testing.T) {
	s := RandomState(8, rand.New(rand.NewSource(8)))
	rng := rand.New(rand.NewSource(5))
	out := make([]uint64, 0, 256)
	cdf := make([]float64, len(s.Amp))
	allocs := testing.AllocsPerRun(20, func() {
		out = s.SampleInto(rng, 256, out[:0], cdf)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestExpectationTableMatchesDiagonal(t *testing.T) {
	s := RandomState(7, rand.New(rand.NewSource(17)))
	cost := func(x uint64) float64 { return float64((x*2654435761)%97) - 48 }
	tbl := make([]float64, len(s.Amp))
	for x := range tbl {
		tbl[x] = cost(uint64(x))
	}
	want := s.ExpectationDiagonal(cost)
	got := s.ExpectationTable(tbl)
	if d := want - got; d > 1e-12 || d < -1e-12 {
		t.Fatalf("ExpectationTable = %g, ExpectationDiagonal = %g", got, want)
	}
}

// TestReplayAmpOpsCounted: sim/replay_amp_ops accounts the amplitude work
// of the checkpoint/replay path — prefix advancement gate by gate plus
// every faulty trajectory's fused suffix — which sim/amp_ops never sees.
// The expected total is rebuilt independently from the fault plans, and
// must not depend on the fan-out width.
func TestReplayAmpOpsCounted(t *testing.T) {
	c := noisyTestCircuit(5, 3, 77) // no measurements or barriers: every prefix gate touches the state
	nm := testNoiseModel()
	const shots, trajectories = 600, 24
	amps := int64(1) << c.NQubits
	base := rand.New(rand.NewSource(3)).Int63()
	var want int64
	lastSite := -1
	for tr := 0; tr < trajectories; tr++ {
		faults := drawFaults(c, nm, rand.New(rand.NewSource(substreamSeed(base, int64(tr)))), nil)
		if len(faults) == 0 {
			continue
		}
		want += int64(len(faultSuffixProgram(c, faults).ops)) * amps
		lastSite = max(lastSite, faults[0].gate)
	}
	if lastSite < 0 {
		t.Fatal("no trajectory drew a fault; the check would be vacuous")
	}
	want += int64(lastSite+1) * amps

	col := obsv.New()
	SetCollector(col)
	defer SetCollector(nil)
	for _, procs := range []int{1, 3} {
		col.Reset()
		old := runtime.GOMAXPROCS(procs)
		NewExecutor(c).SampleNoisy(nm, shots, trajectories, rand.New(rand.NewSource(3)))
		runtime.GOMAXPROCS(old)
		if got := col.Counter(obsv.CntSimReplayAmpOps); got != want {
			t.Errorf("GOMAXPROCS=%d: sim/replay_amp_ops = %d, want %d", procs, got, want)
		}
		if col.Counter(obsv.CntSimReplays) == 0 {
			t.Errorf("GOMAXPROCS=%d: no replays recorded", procs)
		}
	}
}
