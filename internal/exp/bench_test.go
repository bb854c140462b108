package exp

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/obsv"
)

// reducedBenchConfig keeps the suite fast enough for the unit-test tier.
func reducedBenchConfig() BenchConfig {
	cfg := DefaultBenchConfig()
	cfg.Instances = 2
	cfg.Nodes = 12
	cfg.ARGShots = 128
	cfg.ARGTrajectories = 2
	return cfg
}

func runSuiteOnce(t *testing.T) []byte {
	t.Helper()
	c := obsv.New()
	SetCollector(c)
	defer SetCollector(nil)
	rep := obsv.NewReport("bench-test", "r", nil)
	rep.TimeUnitSec = 0.01 // fixed stand-in; stripped before comparison anyway
	if err := RunBenchSuite(context.Background(), reducedBenchConfig(), rep); err != nil {
		t.Fatal(err)
	}
	rep.AttachCollector(c)
	rep.StripTimings()
	rep.CreatedAt = ""
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The whole suite is seeded, so two runs must agree byte for byte once the
// wall-clock fields are stripped — the property the CI gate's swap/depth
// thresholds rely on.
func TestBenchSuiteDeterministic(t *testing.T) {
	a := runSuiteOnce(t)
	b := runSuiteOnce(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("stripped reports differ between identical runs:\n%s\n---\n%s", a, b)
	}
}

func TestBenchSuiteRecordsAllFigures(t *testing.T) {
	c := obsv.New()
	SetCollector(c)
	defer SetCollector(nil)
	rep := obsv.NewReport("bench-test", "r", nil)
	if err := RunBenchSuite(context.Background(), reducedBenchConfig(), rep); err != nil {
		t.Fatal(err)
	}
	rep.AttachCollector(c)
	for _, name := range []string{
		"fig7-er/NAIVE", "fig7-er/GreedyV", "fig7-er/QAIM",
		"fig7-reg/NAIVE", "fig7-reg/GreedyV", "fig7-reg/QAIM",
		"fig8/NAIVE", "fig8/GreedyV", "fig8/QAIM",
		"fig9/QAIM", "fig9/IP", "fig9/IC",
	} {
		b, ok := rep.Benchmark(name)
		if !ok {
			t.Fatalf("record %s missing", name)
		}
		if b.Gates <= 0 || b.Depth <= 0 {
			t.Errorf("%s: empty structural metrics %+v", name, b)
		}
		if b.ARGPct == 0 || b.SuccessProb == 0 {
			t.Errorf("%s: ARG/success not measured: arg=%v succ=%v", name, b.ARGPct, b.SuccessProb)
		}
	}
	if c.Counter("compile/compilations") == 0 || c.Counter("router/routes") == 0 {
		t.Error("suite ran without feeding the collector")
	}
	if c.Counter("device/hopdist_hits") == 0 {
		t.Error("device cache counters never recorded a hit across the suite")
	}
}

// The exp fan-out hammers one collector from GOMAXPROCS goroutines; under
// -race this is the concurrency-safety check for the whole instrumentation
// path (collector, router counters, device cache counters).
func TestCollectorSafeUnderSweepFanOut(t *testing.T) {
	c := obsv.New()
	SetCollector(c)
	defer SetCollector(nil)
	dev := device.Tokyo20()
	dev.Obs = c
	presets := []compile.Preset{compile.PresetNaive, compile.PresetQAIM, compile.PresetIC}
	if _, err := runPoint(Regular, 12, 3, dev, presets, 8, 3, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Counter("exp/instances"); got != 8 {
		t.Errorf("exp/instances = %d, want 8", got)
	}
	if got := c.Counter("compile/compilations"); got != int64(8*len(presets)) {
		t.Errorf("compile/compilations = %d, want %d", got, 8*len(presets))
	}
	snap := c.Snapshot()
	var instSpan *obsv.SpanStat
	for i := range snap.Spans {
		if snap.Spans[i].Name == "exp/instance" {
			instSpan = &snap.Spans[i]
		}
	}
	if instSpan == nil || instSpan.Count != 8 {
		t.Errorf("exp/instance span = %+v, want count 8", instSpan)
	}
}

// BenchmarkAngleSweepBindPerPoint evaluates a (γ,β) landscape with one
// skeleton compile per instance and a bind per grid point — the end-to-end
// wall-clock evidence for parameterized compilation.
func BenchmarkAngleSweepBindPerPoint(b *testing.B) {
	cfg := AngleSweepConfig{Nodes: 10, Degree: 3, Instances: 1,
		GammaSteps: 8, BetaSteps: 8, Seed: 17}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AngleSweep(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
