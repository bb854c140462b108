// The metric-name registry gate: every counter, gauge and span the pipeline
// records must be declared in internal/obsv/names.go. The gate has two
// halves. The static half is the obsvnames analyzer of cmd/qaoalint, which
// rejects any non-registry name at a producer call site on every file at
// vet speed. The runtime half lives here and catches what static scoping
// cannot — names forwarded through variables or built dynamically:
//
//   - TestPipelineRecordsOnlyRegisteredNamesSlim runs always (including
//     -short): one resilient compile plus one hardware-in-the-loop
//     evaluation, a few hundred milliseconds.
//   - TestPipelineRecordsOnlyRegisteredNames is the full-bench sweep over
//     every instrumented path; it is demoted to non-short runs because the
//     slim variant plus the analyzer already cover the registry invariant.
package repro

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/qaoac"
)

// TestPipelineRecordsOnlyRegisteredNamesSlim is the short-mode registry
// gate: the fallback ladder and the hardware-in-the-loop evaluator touch
// compile, router, trace, loop and sim producers in well under a second.
func TestPipelineRecordsOnlyRegisteredNamesSlim(t *testing.T) {
	c := qaoac.NewCollector()
	qaoac.SetObservability(c)
	defer qaoac.SetObservability(nil)

	rng := rand.New(rand.NewSource(3))
	g := qaoac.MustRandomRegular(8, 3, rng)
	prob := &qaoac.Problem{G: g, MaxCut: 1}
	tr := qaoac.NewTracer()
	if _, err := qaoac.CompileResilient(context.Background(), prob, qaoac.P1Params(0.5, 0.2),
		qaoac.Tokyo20(), qaoac.PresetVIC, qaoac.FallbackOptions{Obs: c, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	hw := &qaoac.HardwareEvaluator{
		Prob: prob, Dev: qaoac.Melbourne15(), Preset: qaoac.PresetIC,
		P: 1, Shots: 64, Trajectories: 1, Obs: c,
	}
	if _, err := hw.Expectation(qaoac.P1Params(0.4, 0.3)); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Spans) == 0 {
		t.Fatal("pipeline recorded nothing; the gate would be vacuous")
	}
	if got := snap.Unregistered(); len(got) != 0 {
		t.Errorf("pipeline recorded names missing from the obsv registry: %v\n"+
			"declare them in internal/obsv/names.go or fix the producer", got)
	}
}

func TestPipelineRecordsOnlyRegisteredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("full-bench registry sweep; the slim variant and the obsvnames analyzer cover short runs")
	}
	c := qaoac.NewCollector()
	qaoac.SetObservability(c)
	defer qaoac.SetObservability(nil)

	// 1. The reduced bench suite: compile/router/device/exp/sim counters.
	cfg := qaoac.DefaultBenchSuiteConfig()
	cfg.Instances = 2
	cfg.Nodes = 10
	cfg.ARGNodes = 8
	cfg.ARGShots = 128
	cfg.ARGTrajectories = 2
	rep := qaoac.NewBenchReport("registry-test", "dev", nil)
	if err := qaoac.RunBenchSuite(context.Background(), cfg, rep); err != nil {
		t.Fatal(err)
	}

	// 2. A reduced figure sweep: the exp/instance span and counters live on
	// the sweep path, not the bench suite.
	figCfg := qaoac.DefaultFig7()
	figCfg.Instances = 2
	if _, err := qaoac.Fig7(figCfg); err != nil {
		t.Fatal(err)
	}

	// 3. The fallback ladder with tracing: fallback and trace counters.
	rng := rand.New(rand.NewSource(3))
	g := qaoac.MustRandomRegular(8, 3, rng)
	prob := &qaoac.Problem{G: g, MaxCut: 1}
	tr := qaoac.NewTracer()
	res, err := qaoac.CompileResilient(context.Background(), prob, qaoac.P1Params(0.5, 0.2),
		qaoac.Tokyo20(), qaoac.PresetVIC, qaoac.FallbackOptions{Obs: c, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback == nil || !res.Fallback.Degraded {
		t.Fatal("VIC on uncalibrated tokyo should degrade through the ladder")
	}

	// 4. Hardware-in-the-loop evaluation: loop and sim counters.
	hw := &qaoac.HardwareEvaluator{
		Prob: prob, Dev: qaoac.Melbourne15(), Preset: qaoac.PresetIC,
		P: 1, Shots: 64, Trajectories: 1, Obs: c,
	}
	if _, err := hw.Expectation(qaoac.P1Params(0.4, 0.3)); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Spans) == 0 {
		t.Fatal("pipeline recorded nothing; the gate would be vacuous")
	}
	if got := snap.Unregistered(); len(got) != 0 {
		t.Errorf("pipeline recorded names missing from the obsv registry: %v\n"+
			"declare them in internal/obsv/names.go or fix the producer", got)
	}
	// Spot-check the load-bearing ones actually fired, so a renamed constant
	// cannot silently hollow out this gate.
	for _, name := range []string{
		obsv.CntCompilations, obsv.CntCompileSwaps, obsv.CntRouterSwaps,
		obsv.CntDeviceHopDistBuilds, obsv.CntExpInstances,
		obsv.CntFallbackAttempts, obsv.CntTraceEvents,
		obsv.CntLoopEvaluations, obsv.CntSimRuns,
		obsv.CntSimFusedOps, obsv.CntSimAmpOps,
		obsv.CntSimTrajectories, obsv.CntSimNoisyShots,
		obsv.CntSimCutTableBuilds, obsv.CntCompileOrderKeyed,
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("expected counter %q was never recorded", name)
		}
	}
	// Every trajectory either reuses the shared ideal state or replays from a
	// checkpoint; the split depends on the fault draws, but the counters must
	// account for all of them.
	reuses := snap.Counters[obsv.CntSimIdealReuses]
	replays := snap.Counters[obsv.CntSimReplays]
	if traj := snap.Counters[obsv.CntSimTrajectories]; reuses+replays != traj {
		t.Errorf("ideal_reuses (%d) + replays (%d) != trajectories (%d)", reuses, replays, traj)
	}
	if snap.Counters[obsv.CntSimCheckpoints] != replays {
		t.Errorf("checkpoints (%d) != replays (%d)", snap.Counters[obsv.CntSimCheckpoints], replays)
	}
	for _, name := range []string{
		obsv.SpanCompileTotal, obsv.SpanExpInstance, obsv.SpanLoopExpectation,
		obsv.SpanSimIdealRun, obsv.SpanSimSampleNoisy,
	} {
		found := false
		for _, sp := range snap.Spans {
			if sp.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected span %q was never recorded", name)
		}
	}

	// End to end through the live metrics endpoint: every registered name the
	// run recorded must surface as a Prometheus series, including the new
	// simulator counters a -listen qaoa-bench run exports.
	srv := httptest.NewServer(obsv.NewHandler(c, nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"qaoa_sim_runs_total",
		"qaoa_sim_fused_ops_total",
		"qaoa_sim_amp_ops_total",
		"qaoa_sim_trajectories_total",
		"qaoa_sim_cut_table_builds_total",
		"qaoa_compile_compilations_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics is missing series %q", series)
		}
	}
}
