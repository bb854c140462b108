package exp

import (
	"context"
	"testing"

	"repro/internal/obsv"
)

// The evidence suite's per-record counter deltas must add up exactly:
// compiles collapse to one per problem instance and every evaluation/point
// is a bind. This is the accounting BENCH_parambind_after.json rests on.
func TestParamBindSuiteCounterAccounting(t *testing.T) {
	cfg := ParamBindConfig{
		Instances: 1, Nodes: 8, Restarts: 1, MaxIter: 6,
		Shots: 32, Trajectories: 2,
		SweepInstances: 1, SweepNodes: 8, GammaSteps: 3, BetaSteps: 3,
		Seed: 29,
	}
	obs := obsv.New()
	SetCollector(obs)
	defer SetCollector(nil)
	rep := obsv.NewReport("test", "dev", nil)
	if err := RunParamBindSuite(context.Background(), cfg, rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("%d records, want 2", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if b.Evaluations <= 0 {
			t.Errorf("%s ran %d evaluations", b.Name, b.Evaluations)
		}
		// One pipeline run per problem instance (counted both as a
		// compilation and a skeleton compile), one bind per
		// evaluation/point.
		if b.Compilations != int64(b.Instances) || b.SkeletonCompiles != int64(b.Instances) {
			t.Errorf("%s compiles=%d skeletons=%d, want %d each",
				b.Name, b.Compilations, b.SkeletonCompiles, b.Instances)
		}
		if b.Binds != b.Evaluations {
			t.Errorf("%s binds=%d, want one per evaluation (%d)", b.Name, b.Binds, b.Evaluations)
		}
	}
}
