package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// structuralParams are the angles compile-sweep compiles with; circuit
// structure does not depend on them (the same choice as internal/exp).
var structuralParams = qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{0.2}}

// sweepItem is one compilation of the sweep: a graph, a device, a preset
// and the seed of the compile's tie-breaking rng.
type sweepItem struct {
	family string
	prob   *qaoa.Problem
	dev    *device.Device
	preset compile.Preset
	seed   int64
}

func (it sweepItem) options() compile.Options {
	return it.preset.Options(rand.New(rand.NewSource(it.seed)))
}

// sweepDevices are the compile-sweep targets: tokyo with the Fig. 11(a)
// synthetic calibration (so VIC runs on it), melbourne with its snapshot,
// and the uncalibrated 6x6 grid.
type sweepDevices struct{ tokyo, melbourne, grid *device.Device }

// buildSweepDevices is compile-sweep's set-up: construct and calibrate the
// devices and fill their distance and strength caches, so the timed
// compiles find them warm.
func buildSweepDevices(seed int64) sweepDevices {
	d := sweepDevices{
		tokyo:     device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(seed)), 1e-2, 0.5e-2),
		melbourne: device.Melbourne15(),
		grid:      device.Grid(6, 6),
	}
	for _, dev := range []*device.Device{d.tokyo, d.melbourne, d.grid} {
		dev.HopDistances()
		if dev.Calib != nil {
			dev.ReliabilityDistances()
		}
		dev.StrengthProfile(2)
	}
	return d
}

// sweepItems draws the paper's Fig. 7-10 graph families from seed.
func sweepItems(seed int64, devs sweepDevices, tiny bool) ([]sweepItem, error) {
	rng := rand.New(rand.NewSource(seed))
	var items []sweepItem
	add := func(family string, g *graphs.Graph, dev *device.Device, presets []compile.Preset) {
		prob := &qaoa.Problem{G: g, MaxCut: 1} // the optimum is unused by compilation
		for _, p := range presets {
			items = append(items, sweepItem{family, prob, dev, p, rng.Int63()})
		}
	}
	uncalibrated := []compile.Preset{compile.PresetNaive, compile.PresetGreedyV, compile.PresetQAIM, compile.PresetIP, compile.PresetIC}
	per, gridPer := 8, 4
	probs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	degrees := []int{3, 4, 5, 6, 7, 8}
	sizes3 := []int{12, 14, 16, 18, 20}
	gridGraphs := []int{24, 27, 30}
	melSizes := []int{13, 14, 15}
	if tiny {
		per, gridPer, probs, degrees, sizes3, gridGraphs, melSizes = 1, 1, []float64{0.3}, []int{3}, []int{12}, []int{24}, []int{13}
	}
	regular := func(n, d int) (*graphs.Graph, error) {
		g, err := graphs.RandomRegular(n, d, rng)
		if err != nil {
			return nil, fmt.Errorf("compile-sweep: %d-regular graph on %d nodes: %w", d, n, err)
		}
		return g, nil
	}
	for i := 0; i < per; i++ {
		// Fig. 7/9: 20 nodes on tokyo, every preset.
		for _, p := range probs {
			add(fmt.Sprintf("tokyo-er-p%.1f", p), graphs.ErdosRenyi(20, p, rng), devs.tokyo, compile.Presets)
		}
		for _, d := range degrees {
			g, err := regular(20, d)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("tokyo-reg-d%d", d), g, devs.tokyo, compile.Presets)
		}
		// Fig. 8: 3-regular graphs of growing size on tokyo.
		for _, n := range sizes3 {
			g, err := regular(n, 3)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("tokyo-3reg-n%d", n), g, devs.tokyo, compile.Presets)
		}
		// Fig. 10: IC against VIC on calibrated melbourne.
		for _, n := range melSizes {
			add(fmt.Sprintf("melbourne-er-n%d", n), graphs.ErdosRenyi(n, 0.5, rng), devs.melbourne, []compile.Preset{compile.PresetIC, compile.PresetVIC})
			g, err := regular(n, 6)
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("melbourne-6reg-n%d", n), g, devs.melbourne, []compile.Preset{compile.PresetIC, compile.PresetVIC})
		}
	}
	// Fig. 12 scale: up to 30 nodes on the 6x6 grid.
	for i := 0; i < gridPer; i++ {
		for _, n := range gridGraphs {
			add(fmt.Sprintf("grid-er-n%d", n), graphs.ErdosRenyi(n, 0.2, rng), devs.grid, uncalibrated)
			if !tiny {
				g, err := regular(n, 4)
				if err != nil {
					return nil, err
				}
				add(fmt.Sprintf("grid-4reg-n%d", n), g, devs.grid, uncalibrated)
			}
		}
	}
	return items, nil
}

// checkCompliant asserts that every two-qubit gate of c acts on a coupled
// pair of dev.
func checkCompliant(c *circuit.Circuit, dev *device.Device) error {
	for i, g := range c.Gates {
		if g.Arity() == 2 && !dev.Connected(g.Q0, g.Q1) {
			return checkFailed("gate %d (%v on %d,%d) of a circuit compiled for %s acts on an uncoupled pair", i, g.Kind, g.Q0, g.Q1, dev.Name)
		}
	}
	return nil
}

// checkDistribution simulates the compiled circuit on the full register,
// reads every basis state back through ExtractLogical, and compares the
// resulting distribution with a direct simulation of the logical circuit.
func checkDistribution(it sweepItem, res *compile.Result) error {
	logical, err := qaoa.BuildCircuit(it.prob, structuralParams, nil)
	if err != nil {
		return err
	}
	want := sim.NewState(logical.NQubits).Run(logical).Probabilities()
	phys := sim.NewState(res.Circuit.NQubits).Run(res.Circuit).Probabilities()
	got := make([]float64, len(want))
	for y, p := range phys {
		got[res.ExtractLogical(uint64(y))] += p
	}
	for x := range want {
		if math.Abs(got[x]-want[x]) > 1e-9 {
			return checkFailed("%s/%s: compiled distribution differs from the logical circuit at x=%d (%.12f vs %.12f)", it.family, it.preset, x, got[x], want[x])
		}
	}
	return nil
}

// circuitKey identifies a compiled circuit for the determinism checks.
type circuitKey struct {
	depth, gates, swaps int
	text                uint64 // FNV-1a of the circuit text; 0 when not taken
}

func keyOf(res *compile.Result, withText bool) circuitKey {
	k := circuitKey{depth: res.Depth, gates: res.GateCount, swaps: res.SwapCount}
	if withText {
		h := fnv.New64a()
		h.Write([]byte(res.Circuit.String()))
		k.text = h.Sum64()
	}
	return k
}

// runCompileSweep compiles the seed's input list in passes until the
// budget is spent. Every pass repeats the same compilations (checked) and
// yields its own throughput and latency quantiles; the metrics read those
// across the passes (acrossPasses).
func runCompileSweep(ctx context.Context, rc *runCtx) (*report, error) {
	tr := rc.tr
	root := tr.begin("compile-sweep", "unattributed", -1, fmt.Sprintf("seed-%d", rc.seed), 0)
	defer tr.end(root)

	// Set-up runs once before the timed passes and again, discarded,
	// before every later pass, so its median spans the whole run.
	var setups []time.Duration
	var heap heapPeak
	setup := func() sweepDevices {
		h := tr.begin("device.setup", "device", root, "", 0)
		defer tr.end(h)
		var devs sweepDevices
		setups = append(setups, timed(func() { devs = buildSweepDevices(rc.seed) }))
		return devs
	}
	devs := setup()
	h := tr.begin("inputs", "bench", root, "", 0)
	items, err := sweepItems(rc.seed, devs, rc.tiny)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if rc.col != nil {
		for _, dev := range []*device.Device{devs.tokyo, devs.melbourne, devs.grid} {
			dev.Obs = rc.col
		}
	}

	rep := &report{failures: map[string]int{}}
	var stats passStats
	lat := make(samples, len(items))
	keys := make([]circuitKey, len(items))
	var depth, gates, succ samples
	var overhead [2]float64 // sum of wall minus CompileTime in ms, compiles
	depthBy, swapsBy, totalBy, orderBy := meanBy{}, meanBy{}, meanBy{}, meanBy{}
	before := rc.col.Snapshot()
	start := time.Now()
	passes := 0
	for ; passes == 0 || time.Since(start) < rc.budget; passes++ {
		if passes > 0 {
			setup()
		}
		// The pass span charges the harness's own work between compiles
		// (bookkeeping, the heap sample) to bench.
		pass := tr.begin("pass", "bench", root, "", 0)
		passStart := time.Now()
		for i, it := range items {
			opts := it.options()
			opts.Obs = rc.col
			span := tr.begin("compile", "compile", pass, it.family, 0)
			t0 := time.Now()
			res, err := compile.CompileContext(ctx, it.prob, structuralParams, it.dev, opts)
			wall := time.Since(t0)
			tr.end(span)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.failures["compile_error"]++
				tr.end(pass)
				return rep, fmt.Errorf("%s/%s: %w", it.family, it.preset, err)
			}
			off := time.Duration(0)
			for _, part := range []struct {
				name, layer string
				d           time.Duration
			}{{"compile.map", "compile", res.MapTime}, {"compile.order", "compile", res.OrderTime}, {"router.route", "router", res.RouteTime}} {
				tr.child(span, part.name, part.layer, off, part.d)
				off += part.d
			}
			name := it.preset.String()
			lat[i] = ms(wall)
			totalBy.add(name, ms(wall))
			orderBy.add(name, ms(res.OrderTime))
			overhead[0] += ms(wall - res.CompileTime)
			overhead[1]++
			if passes > 0 {
				if k := keyOf(res, false); k != keys[i] {
					return rep, checkFailed("%s/%s compiled to %+v on pass %d, %+v on pass 0", it.family, name, k, passes, keys[i])
				}
				continue
			}
			keys[i] = keyOf(res, false)
			depth = append(depth, float64(res.Depth))
			gates = append(gates, float64(res.GateCount))
			depthBy.add(name, float64(res.Depth))
			swapsBy.add(name, float64(res.SwapCount))
			if it.dev == devs.melbourne {
				succ = append(succ, it.dev.SuccessProbability(res.Native))
			}
		}
		stats.add(lat, len(items), time.Since(passStart))
		heap.sample()
		tr.end(pass)
	}
	after := rc.col.Snapshot()

	h = tr.begin("check", "bench", root, "", 0)
	err = sweepChecks(ctx, rc.seed, items, devs)
	tr.end(h)
	if err != nil {
		return rep, err
	}

	rep.e2e = endToEnd(setups, &heap, &stats, depth, gates)
	rep.opP50 = acrossPasses(stats.p50, false)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d compilations x %d passes; throughput and quantiles are per pass, read across passes at %.2f from the best; success_prob_mean (melbourne IC/VIC, Fig. 10) %.6g over %d circuits",
			len(items), passes, passQuantile, succ.mean(), len(succ)))

	v := layerValues{}
	v.fillCompile(delta{before, after})
	v["compile.call_overhead_ms"] = ratio(overhead[0], overhead[1])
	for _, p := range presetNames {
		v["compile.total_ms."+p] = totalBy.mean(p)
		v["compile.depth."+p] = depthBy.mean(p)
		v["compile.swaps."+p] = swapsBy.mean(p)
	}
	for _, p := range []string{"IP", "IC", "VIC"} {
		v["compile.order_ms."+p] = orderBy.mean(p)
	}
	v["device.success_prob_mean"] = succ.mean()
	rep.layer = v.metrics()
	return rep, nil
}

// sweepChecks compiles the list again, requires every two-qubit gate of
// each circuit on a coupled pair and the same circuit text as a first
// compile (compilation is deterministic under its seed), then checks a
// seeded sample of the melbourne inputs (15 qubits, small enough
// to simulate the whole register) against the logical circuit.
func sweepChecks(ctx context.Context, seed int64, items []sweepItem, devs sweepDevices) error {
	var pool []sweepItem
	for _, it := range items {
		var keys [2]circuitKey
		for k := range keys {
			res, err := compile.CompileContext(ctx, it.prob, structuralParams, it.dev, it.options())
			if err != nil {
				return err
			}
			keys[k] = keyOf(res, true)
			if k == 0 {
				if err := checkCompliant(res.Circuit, it.dev); err != nil {
					return err
				}
				if err := checkCompliant(res.Native, it.dev); err != nil {
					return err
				}
			}
		}
		if keys[0] != keys[1] {
			return checkFailed("%s/%s compiled to two different circuits", it.family, it.preset)
		}
		if it.dev == devs.melbourne {
			pool = append(pool, it)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > 4 {
		pool = pool[:4]
	}
	for _, it := range pool {
		res, err := compile.CompileContext(ctx, it.prob, structuralParams, it.dev, it.options())
		if err != nil {
			return err
		}
		if err := checkDistribution(it, res); err != nil {
			return err
		}
	}
	return nil
}
