package compile

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
	"repro/internal/router"
)

// requireSameResult asserts got is byte-identical to want: every gate of
// both circuits, both layouts, and the routed metrics. This is the
// skeleton correctness contract — Bind must be indistinguishable from a
// fresh concrete compile.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !sameGateBits(got.Circuit.Gates, want.Circuit.Gates) {
		t.Fatalf("%s: bound circuit differs from oracle\nbound:\n%s\noracle:\n%s", label, got.Circuit, want.Circuit)
	}
	if got.Circuit.NQubits != want.Circuit.NQubits {
		t.Fatalf("%s: bound circuit register %d, oracle %d", label, got.Circuit.NQubits, want.Circuit.NQubits)
	}
	if !sameGateBits(got.Native.Gates, want.Native.Gates) {
		t.Fatalf("%s: bound native circuit differs from oracle", label)
	}
	if got.Circuit.String() != want.Circuit.String() || got.Native.String() != want.Native.String() {
		t.Fatalf("%s: textual rendering differs from oracle", label)
	}
	requireSameLayout(t, label+" initial", got.Initial, want.Initial)
	requireSameLayout(t, label+" final", got.Final, want.Final)
	if got.SwapCount != want.SwapCount || got.Depth != want.Depth || got.GateCount != want.GateCount {
		t.Fatalf("%s: metrics (swaps=%d depth=%d gates=%d) differ from oracle (swaps=%d depth=%d gates=%d)",
			label, got.SwapCount, got.Depth, got.GateCount, want.SwapCount, want.Depth, want.GateCount)
	}
}

// sameGateBits compares gate lists bit for bit: angles by their IEEE
// encoding, so NaN phases and the sign of zero count too, and angle slots.
func sameGateBits(a, b []circuit.Gate) bool {
	return slices.EqualFunc(a, b, func(x, y circuit.Gate) bool {
		if x.Kind != y.Kind || x.Slot != y.Slot || x.Q0 != y.Q0 || x.Q1 != y.Q1 {
			return false
		}
		for i := range x.Params {
			if math.Float64bits(x.Params[i]) != math.Float64bits(y.Params[i]) {
				return false
			}
		}
		return true
	})
}

func requireSameLayout(t *testing.T, label string, got, want *router.Layout) {
	t.Helper()
	if !slices.Equal(got.L2P, want.L2P) || !slices.Equal(got.P2L, want.P2L) {
		t.Fatalf("%s: layout %v/%v differs from oracle %v/%v", label, got.L2P, got.P2L, want.L2P, want.P2L)
	}
}

// The tentpole oracle: for every preset, device, seed, level count,
// Optimize setting and a spread of angle sets, binding the one-time
// skeleton is byte-identical to running the full pipeline on the concrete
// angles with the same seed. The zero-angle set is where peephole changes
// the structure: it cancels the vanished rotations.
func TestSkeletonBindMatchesCompileOracle(t *testing.T) {
	devices := []*device.Device{device.Melbourne15(), device.Tokyo20()}
	graphsUnderTest := []*graphs.Graph{
		graphs.ErdosRenyi(8, 0.5, rand.New(rand.NewSource(3))),
		graphs.MustRandomRegular(10, 3, rand.New(rand.NewSource(4))),
	}
	angleSets := []qaoa.Params{
		{Gamma: []float64{0.8, 0.37}, Beta: []float64{0.4, 0.19}},
		{Gamma: []float64{-1.2, 2.5}, Beta: []float64{0.05, -0.7}},
		{Gamma: []float64{0, 0}, Beta: []float64{0, 0}}, // zero angles must not change structure
	}
	ctx := context.Background()
	for _, dev := range devices {
		for _, g := range graphsUnderTest {
			prob := mustProblem(t, g)
			for _, preset := range Presets {
				if preset == PresetVIC && dev.Calib == nil {
					continue
				}
				for _, seed := range []int64{1, 7} {
					for _, p := range []int{1, 2} {
						for _, optimize := range []bool{false, true} {
							options := func() Options {
								o := preset.Options(rand.New(rand.NewSource(seed)))
								o.Optimize = optimize
								return o
							}
							label := fmt.Sprintf("%s/%v seed=%d p=%d optimize=%t", dev.Name, preset, seed, p, optimize)
							ps, err := ParamSpecFromMaxCut(prob, p)
							if err != nil {
								t.Fatal(err)
							}
							sk, err := CompileSkeleton(ctx, ps, dev, options())
							if err != nil {
								t.Fatalf("%s: skeleton: %v", label, err)
							}
							var buf BindBuffer
							for _, full := range angleSets {
								params := qaoa.Params{Gamma: full.Gamma[:p], Beta: full.Beta[:p]}
								bound, err := sk.BindTo(&buf, params)
								if err != nil {
									t.Fatalf("%s: bind: %v", label, err)
								}
								oracle, err := CompileContext(ctx, prob, params, dev, options())
								if err != nil {
									t.Fatalf("%s: oracle: %v", label, err)
								}
								requireSameResult(t, label, bound, oracle)
							}
						}
					}
				}
			}
		}
	}
}

// Weighted terms and measured circuits must round-trip too: the qaoad
// request path compiles weighted specs with measurement, so the oracle
// contract covers Options.Measure and non-unit weights.
func TestSkeletonBindWeightedMeasuredMatchesOracle(t *testing.T) {
	ps := ParamSpec{
		N: 6, P: 2,
		Terms: []WeightedTerm{
			{U: 0, V: 1, Weight: 1},
			{U: 1, V: 2, Weight: 0.5},
			{U: 2, V: 3, Weight: 2.25},
			{U: 3, V: 4, Weight: -1.3},
			{U: 4, V: 5, Weight: 0.001},
			{U: 5, V: 0, Weight: 3.7},
		},
	}
	dev := device.Melbourne15()
	ctx := context.Background()
	params := qaoa.Params{Gamma: []float64{0.81, -0.29}, Beta: []float64{0.33, 0.12}}
	for _, preset := range Presets {
		opts := preset.Options(rand.New(rand.NewSource(11)))
		opts.Measure = true
		sk, err := CompileSkeleton(ctx, ps, dev, opts)
		if err != nil {
			t.Fatalf("%v: skeleton: %v", preset, err)
		}
		bound, err := sk.Bind(params)
		if err != nil {
			t.Fatalf("%v: bind: %v", preset, err)
		}
		spec, err := ps.Spec(params)
		if err != nil {
			t.Fatal(err)
		}
		oracleOpts := preset.Options(rand.New(rand.NewSource(11)))
		oracleOpts.Measure = true
		oracle, err := CompileSpecContext(ctx, spec, dev, oracleOpts)
		if err != nil {
			t.Fatalf("%v: oracle: %v", preset, err)
		}
		requireSameResult(t, preset.String(), bound, oracle)
	}
}

// The resilient skeleton must walk the same ladder as CompileResilient:
// requesting VIC on an uncalibrated device degrades both paths to IC, and
// the bound circuit matches the resilient oracle byte for byte, fallback
// record included.
func TestSkeletonResilientMatchesResilientOracle(t *testing.T) {
	g := graphs.MustRandomRegular(8, 3, rand.New(rand.NewSource(9)))
	prob := mustProblem(t, g)
	dev := device.Tokyo20() // no calibration: VIC must step down
	params := p1Params(0.7, 0.25)
	ctx := context.Background()

	ps, err := ParamSpecFromMaxCut(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := CompileSkeletonResilient(ctx, ps, dev, PresetVIC, FallbackOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sk.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := CompileResilient(ctx, prob, params, dev, PresetVIC, FallbackOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "resilient", bound, oracle)

	if bound.Fallback == nil || sk.Fallback() == nil {
		t.Fatal("resilient skeleton must carry fallback info on the skeleton and every bound result")
	}
	if bound.Fallback.Effective != oracle.Fallback.Effective ||
		bound.Fallback.Degraded != oracle.Fallback.Degraded ||
		len(bound.Fallback.Attempts) != len(oracle.Fallback.Attempts) {
		t.Fatalf("fallback mismatch: bound %+v, oracle %+v", bound.Fallback, oracle.Fallback)
	}
	if !bound.Fallback.Degraded || bound.Fallback.Effective != PresetIC {
		t.Fatalf("expected VIC→IC degradation, got %+v", bound.Fallback)
	}
}

// Optimize carries through the resilient skeleton: a weighted, measured
// spec bound at several angle sets (zero included, where peephole cancels
// the vanished rotations) is byte-identical to CompileSpecResilient with
// the same fallback options, the peepholed metrics and fallback record
// included. The qaoad optimize path is exactly this call pair.
func TestSkeletonResilientOptimizeMatchesResilientOracle(t *testing.T) {
	ps := ParamSpec{
		N: 5, P: 2,
		Terms: []WeightedTerm{
			{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 0.5}, {U: 2, V: 3, Weight: 2},
			{U: 3, V: 4, Weight: -1.5}, {U: 0, V: 4, Weight: 1}, {U: 1, V: 3, Weight: 0.25},
		},
	}
	ctx := context.Background()
	fo := FallbackOptions{Seed: 5, Measure: true, Optimize: true}
	for _, dev := range []*device.Device{device.Melbourne15(), device.Tokyo20()} {
		sk, err := CompileSkeletonResilient(ctx, ps, dev, PresetVIC, fo)
		if err != nil {
			t.Fatalf("%s: skeleton: %v", dev.Name, err)
		}
		var buf BindBuffer
		gates := make([]int, 0, 2)
		for _, params := range []qaoa.Params{
			{Gamma: []float64{0.8, 0.37}, Beta: []float64{0.4, 0.19}},
			{Gamma: []float64{0, 0}, Beta: []float64{0, 0}},
		} {
			bound, err := sk.BindTo(&buf, params)
			if err != nil {
				t.Fatalf("%s: bind: %v", dev.Name, err)
			}
			gates = append(gates, bound.GateCount)
			spec, err := ps.Spec(params)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := CompileSpecResilient(ctx, spec, dev, PresetVIC, fo)
			if err != nil {
				t.Fatalf("%s: oracle: %v", dev.Name, err)
			}
			requireSameResult(t, dev.Name, bound, oracle)
			if !reflect.DeepEqual(bound.Fallback, oracle.Fallback) {
				t.Fatalf("%s: fallback %+v, oracle %+v", dev.Name, bound.Fallback, oracle.Fallback)
			}
		}
		if gates[1] >= gates[0] {
			t.Fatalf("%s: zero angles bound to %d gates, nonzero to %d: peephole did not run on the bind", dev.Name, gates[1], gates[0])
		}
	}
}

func TestSkeletonBindValidatesParams(t *testing.T) {
	g := graphs.MustRandomRegular(6, 3, rand.New(rand.NewSource(2)))
	prob := mustProblem(t, g)
	ps, err := ParamSpecFromMaxCut(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := CompileSkeleton(context.Background(), ps, device.Melbourne15(), PresetIC.Options(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Bind(p1Params(0.5, 0.2)); err == nil {
		t.Fatal("binding 1-level params on a 2-level skeleton must fail")
	}
	if _, err := sk.Bind(qaoa.Params{}); err == nil {
		t.Fatal("binding empty params must fail")
	}
	if _, err := sk.Bind(qaoa.Params{Gamma: []float64{1, 2}, Beta: []float64{1}}); err == nil {
		t.Fatal("binding ragged params must fail")
	}
}

func TestParamSpecValidate(t *testing.T) {
	cases := []ParamSpec{
		{N: 0, P: 1},
		{N: 3, P: 0},
		{N: 3, P: 1, Terms: []WeightedTerm{{U: 0, V: 3, Weight: 1}}},
		{N: 3, P: 1, Terms: []WeightedTerm{{U: 1, V: 1, Weight: 1}}},
		{N: 3, P: 1 << 30, Terms: []WeightedTerm{{U: 0, V: 1, Weight: 1}}}, // P·(T+1) = 2^31 slots
	}
	for i, ps := range cases {
		if err := ps.Validate(); err == nil {
			t.Errorf("case %d: Validate() accepted invalid spec %+v", i, ps)
		}
	}
}

// A template whose slot tags do not account for every angle exactly once
// per gate it belongs on must be refused, not bound silently wrong: a
// native U1 that lost its tag, and a mixer tag copied onto an untagged
// gate of the routed circuit.
func TestNewSkeletonRejectsBrokenTemplates(t *testing.T) {
	g := graphs.MustRandomRegular(6, 3, rand.New(rand.NewSource(8)))
	ps, err := ParamSpecFromMaxCut(mustProblem(t, g), 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ps.Spec(qaoa.NewParams(ps.P))
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileSpecContext(context.Background(), spec, device.Melbourne15(), PresetIC.Options(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSkeleton(ps, res, false, nil); err != nil {
		t.Fatalf("intact templates refused: %v", err)
	}

	clearedU1 := *res
	clearedU1.Native = res.Native.Clone()
	u1 := slices.IndexFunc(clearedU1.Native.Gates, func(g circuit.Gate) bool { return g.Kind == circuit.U1 && g.Slot != 0 })
	clearedU1.Native.Gates[u1].Slot = 0
	if _, err := newSkeleton(ps, &clearedU1, false, nil); err == nil {
		t.Error("native template with an untagged U1 accepted")
	}

	dupMixer := *res
	dupMixer.Circuit = res.Circuit.Clone()
	rx := slices.IndexFunc(dupMixer.Circuit.Gates, func(g circuit.Gate) bool { return g.Kind == circuit.RX })
	h := slices.IndexFunc(dupMixer.Circuit.Gates, func(g circuit.Gate) bool { return g.Kind == circuit.H })
	dupMixer.Circuit.Gates[h].Slot = dupMixer.Circuit.Gates[rx].Slot
	if _, err := newSkeleton(ps, &dupMixer, false, nil); err == nil {
		t.Error("routed template with a duplicated mixer tag accepted")
	}
}

// The bind path is a per-evaluation hot path: once the buffer has reached
// its high-water mark, BindTo must not allocate at all.
func TestSkeletonBindZeroAlloc(t *testing.T) {
	g := graphs.MustRandomRegular(10, 3, rand.New(rand.NewSource(5)))
	prob := mustProblem(t, g)
	ps, err := ParamSpecFromMaxCut(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := CompileSkeleton(context.Background(), ps, device.Tokyo20(), PresetIC.Options(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	params := qaoa.Params{Gamma: []float64{0.8, 0.2}, Beta: []float64{0.4, 0.1}}
	var buf BindBuffer
	if _, err := sk.BindTo(&buf, params); err != nil { // reach the high-water mark
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sk.BindTo(&buf, params); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BindTo allocates %.1f times per bind, want 0", allocs)
	}
}

// Satellite invariant: the whole pipeline is angle-independent. Two
// compiles differing only in their angle sets must agree on layouts, SWAP
// schedule, and the full gate structure — kinds and qubits gate for gate,
// with rotation phases as the only difference. This is the property the
// skeleton layer is built on.
func TestRoutingIsAngleIndependent(t *testing.T) {
	dev := device.Melbourne15()
	ctx := context.Background()
	for trial := int64(0); trial < 3; trial++ {
		g := graphs.ErdosRenyi(9, 0.4, rand.New(rand.NewSource(100+trial)))
		prob := mustProblem(t, g)
		a := qaoa.Params{Gamma: []float64{0.8, -0.3}, Beta: []float64{0.4, 0.9}}
		b := qaoa.Params{Gamma: []float64{2.31, 0.001}, Beta: []float64{-1.17, 0.55}}
		for _, preset := range Presets {
			seed := 50 + trial
			ra, err := CompileContext(ctx, prob, a, dev, preset.Options(rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatalf("%v: %v", preset, err)
			}
			rb, err := CompileContext(ctx, prob, b, dev, preset.Options(rand.New(rand.NewSource(seed))))
			if err != nil {
				t.Fatalf("%v: %v", preset, err)
			}
			requireSameLayout(t, preset.String()+" initial", ra.Initial, rb.Initial)
			requireSameLayout(t, preset.String()+" final", ra.Final, rb.Final)
			if ra.SwapCount != rb.SwapCount || ra.Depth != rb.Depth || ra.GateCount != rb.GateCount {
				t.Fatalf("%v: metrics differ across angle sets: (%d,%d,%d) vs (%d,%d,%d)",
					preset, ra.SwapCount, ra.Depth, ra.GateCount, rb.SwapCount, rb.Depth, rb.GateCount)
			}
			requireSameStructure(t, preset.String()+" circuit", ra.Circuit, rb.Circuit)
			requireSameStructure(t, preset.String()+" native", ra.Native, rb.Native)
		}
	}
}

// requireSameStructure asserts two circuits are identical up to rotation
// phases: same length, and gate for gate the same kind and qubits.
func requireSameStructure(t *testing.T, label string, a, b *circuit.Circuit) {
	t.Helper()
	if len(a.Gates) != len(b.Gates) {
		t.Fatalf("%s: %d gates vs %d gates", label, len(a.Gates), len(b.Gates))
	}
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Kind != gb.Kind || ga.Q0 != gb.Q0 || ga.Q1 != gb.Q1 {
			t.Fatalf("%s: gate %d is %v(%d,%d) vs %v(%d,%d)", label, i, ga.Kind, ga.Q0, ga.Q1, gb.Kind, gb.Q0, gb.Q1)
		}
	}
}

func mustSkeletonBench(b *testing.B, p int) (*Skeleton, *qaoa.Problem, qaoa.Params) {
	b.Helper()
	g := graphs.MustRandomRegular(12, 3, rand.New(rand.NewSource(17)))
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := ParamSpecFromMaxCut(prob, p)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := CompileSkeleton(context.Background(), ps, device.Tokyo20(), PresetIC.Options(rand.New(rand.NewSource(17))))
	if err != nil {
		b.Fatal(err)
	}
	params := qaoa.Params{Gamma: make([]float64, p), Beta: make([]float64, p)}
	for l := 0; l < p; l++ {
		params.Gamma[l] = 0.8 / float64(l+1)
		params.Beta[l] = 0.4 / float64(l+1)
	}
	return sk, prob, params
}

// BenchmarkSkeletonBindTo measures the per-evaluation cost of the bind
// path; the CI gate pins its allocs/op at zero.
func BenchmarkSkeletonBindTo(b *testing.B) {
	sk, _, params := mustSkeletonBench(b, 2)
	var buf BindBuffer
	if _, err := sk.BindTo(&buf, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.BindTo(&buf, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePerPoint is the work BindTo replaces: a full concrete
// compile per angle set, re-seeded every iteration so the router work
// counters stay deterministic.
func BenchmarkCompilePerPoint(b *testing.B) {
	_, prob, params := mustSkeletonBench(b, 2)
	dev := device.Tokyo20()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileContext(ctx, prob, params, dev, PresetIC.Options(rand.New(rand.NewSource(17)))); err != nil {
			b.Fatal(err)
		}
	}
}
