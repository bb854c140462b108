package exp

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// The bind path must produce the landscape a full compile per grid point
// produces: each bound circuit is byte-identical to CompileContext with
// the same seeded options (the skeleton oracle contract), so every
// instance's best point agrees exactly with the oracle computed here.
func TestAngleSweepBindMatchesCompilePerPoint(t *testing.T) {
	cfg := AngleSweepConfig{Nodes: 8, Degree: 3, Instances: 2, GammaSteps: 3, BetaSteps: 3, Seed: 17}
	ctx := context.Background()
	bind, err := AngleSweep(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bind.Rows) != cfg.Instances+1 {
		t.Fatalf("%d rows, want %d instances plus the mean", len(bind.Rows), cfg.Instances)
	}
	dev := device.Ring(cfg.Nodes)
	for i := 0; i < cfg.Instances; i++ {
		g, err := sampleGraph(Regular, cfg.Nodes, float64(cfg.Degree), instanceRNG(cfg.Seed, i))
		if err != nil {
			t.Fatal(err)
		}
		prob, err := qaoa.NewMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		best, bestGamma, bestBeta := math.Inf(-1), 0.0, 0.0
		for gi := 0; gi < cfg.GammaSteps; gi++ {
			gamma := math.Pi * float64(gi+1) / float64(cfg.GammaSteps)
			for bi := 0; bi < cfg.BetaSteps; bi++ {
				beta := math.Pi / 2 * float64(bi+1) / float64(cfg.BetaSteps)
				params := qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
				res, err := compile.CompileContext(ctx, prob, params, dev, cfg.Preset.Options(instanceRNG(cfg.Seed, i*10+1)))
				if err != nil {
					t.Fatal(err)
				}
				st := sim.NewState(res.Circuit.NQubits)
				st.Run(res.Circuit)
				exp := st.ExpectationDiagonal(func(x uint64) float64 { return prob.Cost(res.ExtractLogical(x)) })
				if exp > best {
					best, bestGamma, bestBeta = exp, gamma, beta
				}
			}
		}
		want := []float64{best, best / float64(prob.MaxCut), bestGamma, bestBeta}
		if got := bind.Rows[i].Values; !slices.Equal(got, want) {
			t.Fatalf("instance %d: bind %v, compile oracle %v", i, got, want)
		}
	}
}

// The sweep compiles once per instance and binds per grid point — the
// compile-work collapse the skeleton layer exists for.
func TestAngleSweepCompilesOncePerInstance(t *testing.T) {
	obs := obsv.New()
	SetCollector(obs)
	defer SetCollector(nil)
	cfg := AngleSweepConfig{Nodes: 8, Degree: 3, Instances: 2, GammaSteps: 3, BetaSteps: 4, Seed: 17}
	if _, err := AngleSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if got := obs.Counter(obsv.CntSkeletonCompiles); got != 2 {
		t.Errorf("skeleton compiles = %d, want 2 (one per instance)", got)
	}
	if got := obs.Counter(obsv.CntCompileBinds); got != 2*3*4 {
		t.Errorf("binds = %d, want %d (one per grid point)", got, 2*3*4)
	}
	// The skeleton compile itself runs the spec pipeline once per instance;
	// no per-point compilations happen on the bind path.
	if got := obs.Counter(obsv.CntCompilations); got != 2 {
		t.Errorf("pipeline compilations = %d, want 2 (skeleton compiles only)", got)
	}
}
