package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/loop"
	"repro/internal/obsv"
	"repro/internal/qaoa"
)

// Parameterized-compilation evidence suite: the two workloads whose
// compile work the skeleton/bind split collapses — the hybrid
// optimization loop (one skeleton compile plus one bind per objective
// evaluation) and the angle-grid sweep (one skeleton per instance, one
// bind per grid point). `qaoa-bench -parambind` runs it and writes
// BENCH_parambind_after.json; BENCH_parambind_before.json is the frozen
// record of the removed compile-per-evaluation mode. The per-record
// Evaluations/Compilations/SkeletonCompiles/Binds counter deltas are
// deterministic under the fixed seed; only the wall-clock fields vary
// between hosts.

// ParamBindConfig sizes the parameterized-compilation evidence suite.
type ParamBindConfig struct {
	// Instances is the number of hybrid-loop problem instances (default 4).
	Instances int
	// Nodes is the problem size of both workloads (default 12).
	Nodes int
	// Restarts and MaxIter bound each instance's Nelder–Mead optimization
	// (defaults 2, 40).
	Restarts int
	MaxIter  int
	// Shots and Trajectories size each noisy loop evaluation (defaults
	// 128, 4 — small, the sizes of the committed BENCH_parambind pair).
	Shots        int
	Trajectories int
	// SweepInstances, SweepNodes, GammaSteps and BetaSteps shape the
	// angle-sweep workload (defaults 2, 10, 12, 12). SweepNodes is
	// separate from Nodes: the sweep's exact simulation costs 2^n per
	// point while routing costs only poly(n), so a slightly smaller n
	// keeps compile work — the thing the skeleton removes — the dominant
	// per-point cost.
	SweepInstances int
	SweepNodes     int
	GammaSteps     int
	BetaSteps      int
	// Seed fixes every random stream of the suite (default 29).
	Seed int64
}

// DefaultParamBind returns the CI-scale evidence-suite configuration.
func DefaultParamBind() ParamBindConfig {
	return ParamBindConfig{
		Instances:      4,
		Nodes:          12,
		Restarts:       2,
		MaxIter:        40,
		Shots:          128,
		Trajectories:   4,
		SweepInstances: 2,
		SweepNodes:     10,
		GammaSteps:     12,
		BetaSteps:      12,
		Seed:           29,
	}
}

func (cfg ParamBindConfig) withDefaults() ParamBindConfig {
	def := DefaultParamBind()
	if cfg.Instances <= 0 {
		cfg.Instances = def.Instances
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = def.Restarts
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = def.MaxIter
	}
	if cfg.Shots <= 0 {
		cfg.Shots = def.Shots
	}
	if cfg.Trajectories <= 0 {
		cfg.Trajectories = def.Trajectories
	}
	if cfg.SweepInstances <= 0 {
		cfg.SweepInstances = def.SweepInstances
	}
	if cfg.SweepNodes <= 0 {
		cfg.SweepNodes = def.SweepNodes
	}
	if cfg.GammaSteps <= 0 {
		cfg.GammaSteps = def.GammaSteps
	}
	if cfg.BetaSteps <= 0 {
		cfg.BetaSteps = def.BetaSteps
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	return cfg
}

// compileWork is a snapshot of the three compile-work counters; deltas
// between snapshots attribute work to one phase of the suite.
type compileWork struct{ compilations, skeletons, binds int64 }

func snapshotWork(obs *obsv.Collector) compileWork {
	return compileWork{
		compilations: obs.Counter(obsv.CntCompilations),
		skeletons:    obs.Counter(obsv.CntSkeletonCompiles),
		binds:        obs.Counter(obsv.CntCompileBinds),
	}
}

func (w compileWork) since(prev compileWork) compileWork {
	return compileWork{
		compilations: w.compilations - prev.compilations,
		skeletons:    w.skeletons - prev.skeletons,
		binds:        w.binds - prev.binds,
	}
}

// RunParamBindSuite runs both evidence workloads and appends the "parambind/loop" and "parambind/sweep" records to rep.
// Compilation and sampling forward the collector installed via
// SetCollector, so the records' counter deltas and the report's counter
// dump agree.
func RunParamBindSuite(ctx context.Context, cfg ParamBindConfig, rep *obsv.Report) error {
	cfg = cfg.withDefaults()
	obs := Collector()
	mel := device.Melbourne15()
	mel.Obs = obs

	// Hybrid loop: Nelder–Mead over noisy melbourne evaluations. The
	// evaluation count is deterministic (seeded sampling), so the compile
	// counter deltas are exact across runs and hosts.
	before := snapshotWork(obs)
	var evals int64
	loopStart := time.Now() //lint:allow determinism: measured wall time, gated loosely if at all
	for i := 0; i < cfg.Instances; i++ {
		g, err := sampleGraph(Regular, cfg.Nodes, 3, instanceRNG(cfg.Seed, i))
		if err != nil {
			return fmt.Errorf("exp: parambind loop graph %d: %w", i, err)
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			return fmt.Errorf("exp: parambind loop optimum %d: %w", i, err)
		}
		ev := &loop.HardwareEvaluator{
			Prob: prob, Dev: mel, Preset: compile.PresetIC, P: 1,
			Shots: cfg.Shots, Trajectories: cfg.Trajectories,
			Rng: instanceRNG(cfg.Seed+101, i), Ctx: ctx, Obs: obs,
		}
		res, err := loop.RunContext(ctx, ev, prob, loop.Options{
			Restarts: cfg.Restarts, MaxIter: cfg.MaxIter,
			Rng: instanceRNG(cfg.Seed+202, i),
		})
		if err != nil {
			return fmt.Errorf("exp: parambind loop instance %d: %w", i, err)
		}
		evals += int64(res.Evaluations)
	}
	loopSec := time.Since(loopStart).Seconds() //lint:allow determinism: measured wall time, gated loosely if at all
	work := snapshotWork(obs).since(before)
	rep.AddBenchmark(obsv.Benchmark{
		Name: "parambind/loop", Instances: cfg.Instances,
		CompileSec: loopSec, ReqPerSec: float64(evals) / loopSec,
		Evaluations: evals, Compilations: work.compilations,
		SkeletonCompiles: work.skeletons, Binds: work.binds,
	})

	// Angle sweep: exact ⟨C⟩ over a γ×β grid on the swap-heavy ring.
	scfg := AngleSweepConfig{
		Nodes: cfg.SweepNodes, Degree: 3, Instances: cfg.SweepInstances,
		GammaSteps: cfg.GammaSteps, BetaSteps: cfg.BetaSteps,
		Preset: compile.PresetIC, Seed: cfg.Seed + 5000,
	}
	before = snapshotWork(obs)
	sweepStart := time.Now() //lint:allow determinism: measured wall time, gated loosely if at all
	if _, err := AngleSweep(ctx, scfg); err != nil {
		return fmt.Errorf("exp: parambind sweep: %w", err)
	}
	sweepSec := time.Since(sweepStart).Seconds() //lint:allow determinism: measured wall time, gated loosely if at all
	work = snapshotWork(obs).since(before)
	points := int64(scfg.Instances * scfg.GammaSteps * scfg.BetaSteps)
	rep.AddBenchmark(obsv.Benchmark{
		Name: "parambind/sweep", Instances: scfg.Instances,
		CompileSec: sweepSec, ReqPerSec: float64(points) / sweepSec,
		Evaluations: points, Compilations: work.compilations,
		SkeletonCompiles: work.skeletons, Binds: work.binds,
	})
	return nil
}
