package main

import (
	"repro/internal/compile"
	"repro/internal/obsv"
)

// presetNames are the compile presets in the paper's order.
var presetNames = func() []string {
	out := make([]string, len(compile.Presets))
	for i, p := range compile.Presets {
		out[i] = p.String()
	}
	return out
}()

type nameUnit struct{ name, unit string }

// perLayer lists the traced run's per-layer metrics, the self-time rows and
// the trace.* validity rows aside (measure appends those). Every workload
// emits every name; a layer the workload does not exercise reads 0.
var perLayer = func() []nameUnit {
	l := []nameUnit{
		{"compile.compiles", "count"},
		{"compile.map_ms", "ms"},
		{"compile.order_ms", "ms"},
		{"compile.route_ms", "ms"},
		{"compile.rest_ms", "ms"},
		{"compile.call_overhead_ms", "ms"},
	}
	for _, p := range presetNames {
		l = append(l, nameUnit{"compile.total_ms." + p, "ms"})
	}
	for _, p := range []string{"IP", "IC", "VIC"} {
		l = append(l, nameUnit{"compile.order_ms." + p, "ms"})
	}
	for _, p := range presetNames {
		l = append(l, nameUnit{"compile.depth." + p, "count"}, nameUnit{"compile.swaps." + p, "count"})
	}
	return append(l, []nameUnit{
		{"router.score_evals", "count"},
		{"router.swaps", "count"},
		{"router.layers", "count"},
		{"compile.layers", "count"},
		{"compile.dist_updates", "count"},
		{"device.dist_hit_ratio", "ratio"},
		{"device.success_prob_mean", "probability"},
		{"loop.expectation_ms", "ms"},
		{"loop.optimizer_self_ms", "ms"},
		{"loop.evals", "count"},
		{"compile.skeleton_ms", "ms"},
		{"compile.binds", "count"},
		{"sim.sample_noisy_ms", "ms"},
		{"sim.ideal_run_ms", "ms"},
		{"sim.amp_ops", "count"},
		{"sim.fused_ops", "count"},
		{"sim.replays", "count"},
		{"sim.replay_gates", "count"},
		{"sim.fault_free_ratio", "ratio"},
		{"sim.register_waste", "ratio"},
		{"exp.arg_ms", "ms"},
		{"sim.amp_ops_per_arg", "count"},
		{"exp.arg_pct", "pct-points"},
		{"serve.server_p50_ms", "ms"},
		{"serve.server_p99_ms", "ms"},
		{"serve.transport_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.compile_flight_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.skeleton_hit_ratio", "ratio"},
		{"serve.compiles", "count"},
		{"serve.singleflight_shared", "count"},
		{"serve.shed", "count"},
		{"serve.class_p99_ms.hit", "ms"},
		{"serve.class_p99_ms.bind", "ms"},
		{"serve.class_p99_ms.compile", "ms"},
		{"serve.max_rps", "1/s"},
		{"serve.reload_ms", "ms"},
		{"serve.invalidations", "count"},
		{"load.lag_p99_ms", "ms"},
	}...)
}()

// layerValues collects per-layer values by name.
type layerValues map[string]float64

// metrics emits every per-layer metric in list order, 0 where unset.
func (v layerValues) metrics() []metric {
	out := make([]metric, len(perLayer))
	for i, nu := range perLayer {
		out[i] = metric{name: nu.name, unit: nu.unit, value: v[nu.name]}
	}
	return out
}

// delta is the difference between two snapshots of the program's obsv
// collector, read only in the traced pass.
type delta struct{ before, after obsv.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// span returns the count and total milliseconds recorded under name.
func (d delta) span(name string) (count, totalMS float64) {
	find := func(s obsv.Snapshot) (int64, float64) {
		for _, st := range s.Spans {
			if st.Name == name {
				return st.Count, st.TotalSec
			}
		}
		return 0, 0
	}
	c1, t1 := find(d.after)
	c0, t0 := find(d.before)
	return float64(c1 - c0), (t1 - t0) * 1e3
}

func (d delta) spanMeanMS(name string) float64 {
	c, t := d.span(name)
	return ratio(t, c)
}

// fillCompile sets the compile, router and device rows the collector
// measures: pass times and work counters per compilation, and the device
// distance-cache hit ratio.
func (v layerValues) fillCompile(d delta) {
	n := d.counter(obsv.CntCompilations)
	v["compile.compiles"] = n
	mapMS := d.spanMeanMS(obsv.SpanCompileMap)
	orderMS := d.spanMeanMS(obsv.SpanCompileOrder)
	routeMS := d.spanMeanMS(obsv.SpanCompileRoute)
	v["compile.map_ms"] = mapMS
	v["compile.order_ms"] = orderMS
	v["compile.route_ms"] = routeMS
	if total := d.spanMeanMS(obsv.SpanCompileTotal); total > 0 {
		v["compile.rest_ms"] = total - mapMS - orderMS - routeMS
	}
	v["router.score_evals"] = ratio(d.counter(obsv.CntRouterScoreEvals), n)
	v["router.swaps"] = ratio(d.counter(obsv.CntRouterSwaps), n)
	v["router.layers"] = ratio(d.counter(obsv.CntRouterLayers), n)
	v["compile.layers"] = ratio(d.counter(obsv.CntCompileLayers), n)
	v["compile.dist_updates"] = ratio(d.counter(obsv.CntCompileDistUpdates), n)
	hits := d.counter(obsv.CntDeviceHopDistHits) + d.counter(obsv.CntDeviceRelDistHits)
	builds := d.counter(obsv.CntDeviceHopDistBuilds) + d.counter(obsv.CntDeviceRelDistBuilds)
	v["device.dist_hit_ratio"] = ratio(hits, hits+builds)
}
