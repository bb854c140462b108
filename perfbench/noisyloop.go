package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/graphs"
	"repro/internal/loop"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// Fig. 11(b) budget of the final ARG measurement, and the small-shot
// budget of each evaluation inside the optimizer.
const (
	argShots        = 40960
	argTrajectories = 64
	evalShots       = 256
	evalTraject     = 2
	nmMaxIter       = 12
)

// loopInstance is one noisy-loop input: a MaxCut problem compiled with a
// preset for melbourne, with the seed of every random stream it uses.
type loopInstance struct {
	id     string
	prob   *qaoa.Problem
	preset compile.Preset
	seed   int64
}

// loopInstances draws the n-instance set from seed. Sizes 8-12, families
// (Erdos-Renyi with p=0.5 as an exact edge count, or 6-regular) and presets
// (IC, VIC) are fixed by position, so every seed runs the same strata and
// only the graphs' edges and the random streams depend on it.
func loopInstances(seed int64, n int) ([]loopInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]loopInstance, 0, n)
	for i := 0; i < n; i++ {
		nodes := 8 + i%5
		preset := compile.PresetIC
		if i/5%2 == 1 {
			preset = compile.PresetVIC
		}
		var g *graphs.Graph
		var err error
		family := "er"
		if (i+i/10)%2 == 0 {
			g, err = graphs.ErdosRenyiExactEdges(nodes, nodes*(nodes-1)/4, rng)
		} else {
			family = "6reg"
			g, err = graphs.RandomRegular(nodes, 6, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("noisy-loop: %s graph on %d nodes: %w", family, nodes, err)
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			return nil, err
		}
		out = append(out, loopInstance{fmt.Sprintf("inst%d-%s-n%d-%s", i, family, nodes, preset), prob, preset, rng.Int63()})
	}
	return out, nil
}

// timedEvaluator wraps the evaluator handed to loop.RunContext and times
// every Expectation call.
type timedEvaluator struct {
	ev      loop.Evaluator
	tr      *tracer
	parent  int
	lat     samples
	total   time.Duration
	errors  int
	results []float64
}

func (t *timedEvaluator) Levels() int { return t.ev.Levels() }

func (t *timedEvaluator) Expectation(p qaoa.Params) (float64, error) {
	h := t.tr.begin("loop.expectation", "sim", t.parent, "", 0)
	start := time.Now()
	v, err := t.ev.Expectation(p)
	d := time.Since(start)
	t.tr.end(h)
	t.lat = append(t.lat, ms(d))
	t.total += d
	if err != nil {
		t.errors++
	}
	t.results = append(t.results, v)
	return v, err
}

// loopRun is one optimization of one instance.
type loopRun struct {
	first   time.Duration // first Expectation: skeleton compile, noise model, one evaluation
	runWall time.Duration // loop.RunContext
	eval    *timedEvaluator
	best    loop.Result
	nmDelta delta // collector during the Nelder-Mead phase
}

// optimizeInstance runs the hybrid loop on one instance: a fresh
// HardwareEvaluator (its skeleton compiled on the first Expectation), then
// Nelder-Mead over small-shot noisy evaluations. Everything is seeded by
// the instance, so a second run repeats the first exactly.
func optimizeInstance(ctx context.Context, in loopInstance, mel *device.Device, rc *runCtx, root int) (*loopRun, error) {
	tr := rc.tr
	out := &loopRun{}
	ev := &loop.HardwareEvaluator{
		Prob: in.prob, Dev: mel, Preset: in.preset, P: 1,
		Shots: evalShots, Trajectories: evalTraject,
		Rng: rand.New(rand.NewSource(in.seed)), Ctx: ctx, Obs: rc.col,
	}
	h := tr.begin("loop.first_expectation", "compile", root, in.id, 0)
	var err error
	out.first = timed(func() { _, err = ev.Expectation(structuralParams) })
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("%s: first evaluation: %w", in.id, err)
	}
	h = tr.begin("loop.run", "optimize", root, in.id, 0)
	out.eval = &timedEvaluator{ev: ev, tr: tr, parent: h}
	out.nmDelta.before = rc.col.Snapshot()
	start := time.Now()
	out.best, err = loop.RunContext(ctx, out.eval, in.prob, loop.Options{Restarts: 1, MaxIter: nmMaxIter, Rng: rand.New(rand.NewSource(in.seed + 1))})
	out.runWall = time.Since(start)
	out.nmDelta.after = rc.col.Snapshot()
	tr.end(h)
	out.eval.ev = nil // the run keeps its timings, not the evaluator's buffers
	if err != nil {
		return nil, fmt.Errorf("%s: optimizer: %w", in.id, err)
	}
	return out, nil
}

// measured is an instance's circuit at its optimized angles and its ARG.
type measured struct {
	res        *compile.Result
	compileDur time.Duration
	arg        float64
	argWall    time.Duration
	succ       float64
	argDelta   delta // collector during MeasureARG
}

// measureInstance compiles the instance at the optimized angles and
// measures its ARG with the Fig. 11(b) shot and trajectory budget.
func measureInstance(ctx context.Context, in loopInstance, params qaoa.Params, mel *device.Device, nm *sim.NoiseModel, rc *runCtx, root int) (*measured, error) {
	tr := rc.tr
	out := &measured{}
	opts := in.preset.Options(rand.New(rand.NewSource(in.seed + 2)))
	opts.Obs = rc.col
	h := tr.begin("compile", "compile", root, in.id, 0)
	start := time.Now()
	res, err := compile.CompileContext(ctx, in.prob, params, mel, opts)
	out.compileDur = time.Since(start)
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("%s: compile at the optimized angles: %w", in.id, err)
	}
	tr.child(h, "router.route", "router", res.MapTime+res.OrderTime, res.RouteTime)
	out.res = res
	if err := checkCompliant(res.Circuit, mel); err != nil {
		return nil, err
	}
	out.succ = mel.SuccessProbability(res.Native)
	h = tr.begin("exp.measure_arg", "exp", root, in.id, 0)
	out.argDelta.before = rc.col.Snapshot()
	start = time.Now()
	out.arg, err = exp.MeasureARG(in.prob, res, nm, argShots, argTrajectories, rand.New(rand.NewSource(in.seed+3)))
	out.argWall = time.Since(start)
	out.argDelta.after = rc.col.Snapshot()
	tr.end(h)
	if err != nil {
		return nil, fmt.Errorf("%s: ARG: %w", in.id, err)
	}
	return out, nil
}

// touchedQubits counts the register qubits a circuit's gates act on.
func touchedQubits(res *compile.Result) int {
	seen := make([]bool, res.Circuit.NQubits)
	n := 0
	for _, g := range res.Circuit.Gates {
		for _, q := range []int{g.Q0, g.Q1} {
			if q >= 0 && !seen[q] {
				seen[q] = true
				n++
			}
		}
	}
	return n
}

// noisy-loop runs loopInstancesPerRun instances once — every size and
// preset stratum twice, once per family — and repeats the first
// loopTimedInstances of them, one of each size and preset, for timing.
// Its depth and gate means extend the run's instances to
// loopDepthInstances drawn from the same strata.
const (
	loopInstancesPerRun = 20
	loopTimedInstances  = 10
	loopDepthInstances  = 200
)

// depthSample returns the native depths and gate counts of the measured
// circuits and of the instances after them in the seed's list, up to
// total, each compiled with its preset for melbourne the way
// measureInstance compiles. Twenty circuits alone leave the mean's spread
// from seed to seed near 9%; two hundred bring it under 2%.
func depthSample(ctx context.Context, seed int64, meas []*measured, total int, mel *device.Device) (depth, gates samples, err error) {
	for _, m := range meas {
		depth = append(depth, float64(m.res.Depth))
		gates = append(gates, float64(m.res.GateCount))
	}
	insts, err := loopInstances(seed, total)
	if err != nil {
		return nil, nil, err
	}
	for _, in := range insts[len(meas):] {
		opts := in.preset.Options(rand.New(rand.NewSource(in.seed + 2)))
		res, err := compile.CompileContext(ctx, in.prob, structuralParams, mel, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", in.id, err)
		}
		if err := checkCompliant(res.Circuit, mel); err != nil {
			return nil, nil, err
		}
		depth = append(depth, float64(res.Depth))
		gates = append(gates, float64(res.GateCount))
	}
	return depth, gates, nil
}

func runNoisyLoop(ctx context.Context, rc *runCtx) (*report, error) {
	tr := rc.tr
	root := tr.begin("noisy-loop", "unattributed", -1, fmt.Sprintf("seed-%d", rc.seed), 0)
	defer tr.end(root)
	sim.SetCollector(rc.col)
	defer sim.SetCollector(nil)

	n, timedN, depthN := loopInstancesPerRun, loopTimedInstances, loopDepthInstances
	if rc.tiny {
		n, timedN, depthN = 1, 1, 2
	}
	h := tr.begin("inputs", "bench", root, "", 0)
	insts, err := loopInstances(rc.seed, n)
	mel := device.Melbourne15()
	nm := sim.NoiseFromDevice(mel)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	if rc.col != nil {
		mel.Obs = rc.col
	}

	// The first cycle optimizes every instance, compiles it at its
	// optimized angles and measures the ARG. Later cycles, until the budget
	// is spent, optimize the timed instances again; each repeats the first
	// cycle exactly (checked). Every cycle's Nelder-Mead runs over the timed
	// instances yield its own evaluation throughput and latency quantiles;
	// the metrics read those across the cycles (acrossPasses).
	rep := &report{failures: map[string]int{}}
	var stats passStats
	runs := make([][]*loopRun, n) // [instance][cycle]
	meas := make([]*measured, n)
	var exactEnd obsv.Snapshot
	var heap heapPeak
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < rc.budget; cycle++ {
		var cycleLat samples
		var cycleWall time.Duration
		for i, in := range insts {
			if cycle > 0 && i >= timedN {
				break
			}
			r, err := optimizeInstance(ctx, in, mel, rc, root)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.failures["instance_error"]++
				return rep, err
			}
			rep.attempted += len(r.eval.lat)
			rep.failed += r.eval.errors
			if r.eval.errors > 0 {
				rep.failures["evaluator_error"] += r.eval.errors
			}
			if cycle > 0 {
				if err := sameRun(runs[i][0], r); err != nil {
					return rep, err
				}
			}
			runs[i] = append(runs[i], r)
			if i < timedN {
				cycleLat = append(cycleLat, r.eval.lat...)
				cycleWall += r.runWall
			}
			if cycle == 0 {
				m, err := measureInstance(ctx, in, r.best.Params, mel, nm, rc, root)
				rep.attempted += 2 // the compile and the ARG measurement
				if err != nil {
					rep.failed++
					rep.failures["measure_error"]++
					return rep, err
				}
				meas[i] = m
			}
			heap.sample()
		}
		stats.add(cycleLat, len(cycleLat), cycleWall)
		if cycle == 0 {
			exactEnd = rc.col.Snapshot()
		}
	}

	// The ARG must repeat exactly too.
	h = tr.begin("check.repeat", "bench", root, "", 0)
	again, err := measureInstance(ctx, insts[0], runs[0][0].best.Params, mel, nm, &runCtx{seed: rc.seed}, -1)
	tr.end(h)
	if err != nil {
		return rep, err
	}
	if math.Float64bits(again.arg) != math.Float64bits(meas[0].arg) {
		return rep, checkFailed("noisy-loop repeat: ARG %v, then %v", meas[0].arg, again.arg)
	}

	var firsts []time.Duration
	var evalWall time.Duration
	var evalCount int
	var args, argMS, succ, waste, optSelf, overhead samples
	depthBy, swapsBy, totalBy, orderBy := meanBy{}, meanBy{}, meanBy{}, meanBy{}
	var nmSim [4]float64 // amp_ops, fused_ops, replays, replay_gates
	var argAmpOps, trajectories, idealReuses, exactEvals, binds float64
	var nmSpans [2][2]float64 // sample_noisy, ideal_run: count, total ms during Nelder-Mead
	for i, rs := range runs {
		for _, r := range rs {
			firsts = append(firsts, r.first)
			evalWall += r.eval.total
			evalCount += len(r.eval.lat)
			optSelf = append(optSelf, ms(r.runWall-r.eval.total))
		}
		r0, m := rs[0], meas[i]
		preset := insts[i].preset.String()
		argMS = append(argMS, ms(m.argWall))
		totalBy.add(preset, ms(m.compileDur))
		orderBy.add(preset, ms(m.res.OrderTime))
		overhead = append(overhead, ms(m.compileDur-m.res.CompileTime))
		args = append(args, m.arg)
		succ = append(succ, m.succ)
		waste = append(waste, float64(m.res.Circuit.NQubits)/float64(touchedQubits(m.res)))
		depthBy.add(preset, float64(m.res.Depth))
		swapsBy.add(preset, float64(m.res.SwapCount))
		exactEvals += float64(r0.best.Evaluations)
		for k, c := range []string{obsv.CntSimAmpOps, obsv.CntSimFusedOps, obsv.CntSimReplays, obsv.CntSimReplayGates} {
			nmSim[k] += r0.nmDelta.counter(c)
		}
		argAmpOps += m.argDelta.counter(obsv.CntSimAmpOps)
		trajectories += r0.nmDelta.counter(obsv.CntSimTrajectories)
		idealReuses += r0.nmDelta.counter(obsv.CntSimIdealReuses)
		binds += r0.nmDelta.counter(obsv.CntCompileBinds)
		for k, name := range []string{obsv.SpanSimSampleNoisy, obsv.SpanSimIdealRun} {
			c, t := r0.nmDelta.span(name)
			nmSpans[k][0] += c
			nmSpans[k][1] += t
		}
	}
	h = tr.begin("depth.sample", "bench", root, "", 0)
	depth, gates, err := depthSample(ctx, rc.seed, meas, depthN, mel)
	tr.end(h)
	rep.attempted += depthN - n
	if err != nil {
		rep.failed++
		rep.failures["compile_error"]++
		return rep, err
	}
	rep.opP50 = acrossPasses(stats.p50, false)
	rep.e2e = endToEnd(firsts, &heap, &stats, depth, gates)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d instances, the first %d in %d cycles; evaluation throughput and quantiles are per cycle, read across cycles at %.2f from the best; arg_s median %.6f s (n=%d); arg_pct %.6f; success_prob_mean %.6f; loop evals %d",
			n, timedN, len(runs[0]), passQuantile, argMS.quantile(0.5)/1e3, len(argMS), args.mean(), succ.mean(), int(exactEvals)))

	v := layerValues{}
	all := delta{before: obsv.Snapshot{}, after: exactEnd}
	v.fillCompile(all)
	v["compile.call_overhead_ms"] = overhead.mean()
	for _, p := range presetNames {
		v["compile.total_ms."+p] = totalBy.mean(p)
		v["compile.depth."+p] = depthBy.mean(p)
		v["compile.swaps."+p] = swapsBy.mean(p)
	}
	for _, p := range []string{"IP", "IC", "VIC"} {
		v["compile.order_ms."+p] = orderBy.mean(p)
	}
	v["device.success_prob_mean"] = succ.mean()
	v["loop.expectation_ms"] = ms(evalWall) / float64(evalCount)
	v["loop.optimizer_self_ms"] = optSelf.mean()
	v["loop.evals"] = exactEvals
	v["compile.skeleton_ms"] = medianSec(firsts) * 1e3
	v["compile.binds"] = binds
	v["sim.sample_noisy_ms"] = ratio(nmSpans[0][1], nmSpans[0][0])
	v["sim.ideal_run_ms"] = ratio(nmSpans[1][1], nmSpans[1][0])
	for k, name := range []string{"sim.amp_ops", "sim.fused_ops", "sim.replays", "sim.replay_gates"} {
		v[name] = ratio(nmSim[k], exactEvals)
	}
	v["sim.fault_free_ratio"] = ratio(idealReuses, trajectories)
	v["sim.register_waste"] = waste.mean()
	v["exp.arg_ms"] = argMS.mean()
	v["sim.amp_ops_per_arg"] = ratio(argAmpOps, float64(len(args)))
	v["exp.arg_pct"] = args.mean()
	rep.layer = v.metrics()
	return rep, nil
}

// sameRun compares two optimizations of one instance bit for bit.
func sameRun(a, b *loopRun) error {
	if a.best.Evaluations != b.best.Evaluations || len(a.eval.results) != len(b.eval.results) {
		return checkFailed("noisy-loop repeat: %d evaluations, then %d", a.best.Evaluations, b.best.Evaluations)
	}
	for i := range a.eval.results {
		if math.Float64bits(a.eval.results[i]) != math.Float64bits(b.eval.results[i]) {
			return checkFailed("noisy-loop repeat: evaluation %d read %v, then %v", i, a.eval.results[i], b.eval.results[i])
		}
	}
	return nil
}
