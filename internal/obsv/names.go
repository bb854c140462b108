package obsv

import "sort"

// Every counter, gauge and span name the pipeline records is declared here
// and listed in the registry below. Producers must reference these
// constants instead of string literals: the registry is what the bench
// Compare gate, the Prometheus endpoint and the dashboards key on, so a
// typo in a producer would silently fork a metric. The pipeline test
// (obsv_names_test.go at the module root) runs the instrumented paths and
// fails on any recorded name the registry does not know.

// Span names (timed regions).
const (
	SpanCompileTotal    = "compile/total"
	SpanCompileMap      = "compile/map"
	SpanCompileOrder    = "compile/order"
	SpanCompileRoute    = "compile/route"
	SpanCompileStitch   = "compile/stitch"
	SpanExpInstance     = "exp/instance"
	SpanLoopExpectation = "loop/expectation"
	SpanSimIdealRun     = "sim/ideal_run"
	SpanSimSampleNoisy  = "sim/sample_noisy"
	SpanServeRequest    = "serve/request"
	SpanServeCompile    = "serve/compile_flight"
)

// Counter names (monotonic).
const (
	CntCompilations        = "compile/compilations"
	CntSkeletonCompiles    = "compile/skeleton_compiles"
	CntCompileBinds        = "compile/binds"
	CntCompileSwaps        = "compile/swaps"
	CntCompileGates        = "compile/gates"
	CntCompileDepthTotal   = "compile/depth_total"
	CntCompileLayers       = "compile/layers"
	CntCompileResilient    = "compile/resilient"
	CntFallbackAttempts    = "compile/fallback_attempts"
	CntFallbackDepthTotal  = "compile/fallback_depth_total"
	CntFallbackDegraded    = "compile/fallback_degraded"
	CntRouterTrials        = "router/trials"
	CntRouterRoutes        = "router/routes"
	CntRouterLayers        = "router/layers"
	CntRouterSwaps         = "router/swaps"
	CntRouterForcedPaths   = "router/forced_paths"
	CntRouterScoreEvals    = "router/score_evals"
	CntCompileDistUpdates  = "compile/dist_updates"
	CntCompileOrderKeyed   = "compile/order_terms_keyed"
	CntDeviceHopDistBuilds = "device/hopdist_builds"
	CntDeviceHopDistHits   = "device/hopdist_hits"
	CntDeviceRelDistBuilds = "device/reldist_builds"
	CntDeviceRelDistHits   = "device/reldist_hits"
	CntDeviceInvalidations = "device/cache_invalidations"
	CntExpInstances        = "exp/instances"
	CntExpRetries          = "exp/retries"
	CntExpFailures         = "exp/failures"
	CntLoopEvaluations     = "loop/evaluations"
	CntSimRuns             = "sim/runs"
	CntSimGates            = "sim/gates"
	CntSimAmpOps           = "sim/amp_ops"
	CntSimNoisyShots       = "sim/noisy_shots"
	CntSimTrajectories     = "sim/trajectories"
	CntSimFusedOps         = "sim/fused_ops"
	CntSimIdealReuses      = "sim/ideal_reuses"
	CntSimReplays          = "sim/replays"
	CntSimReplayGates      = "sim/replay_gates"
	CntSimReplayAmpOps     = "sim/replay_amp_ops"
	CntSimCheckpoints      = "sim/checkpoints"
	CntSimCutTableBuilds   = "sim/cut_table_builds"
	CntTraceEvents         = "trace/events"

	// qaoad compile-service counters (internal/serve).
	CntServeRequests           = "serve/requests"
	CntServeOK                 = "serve/ok"
	CntServeErrors             = "serve/errors"
	CntServeBadRequests        = "serve/bad_requests"
	CntServeShed               = "serve/shed"
	CntServeDeadlineExceeded   = "serve/deadline_exceeded"
	CntServeClientGone         = "serve/client_gone"
	CntServeCacheHits          = "serve/cache_hits"
	CntServeCacheMisses        = "serve/cache_misses"
	CntServeCacheEvictions     = "serve/cache_evictions"
	CntServeCacheInvalidations = "serve/cache_invalidations"
	CntServeSingleflightShared = "serve/singleflight_shared"
	// Skeleton-tier cache counters: the tier is keyed without angles, so
	// an angle-sweeping client hits it on every point after the first.
	CntServeSkeletonHits          = "serve/skeleton_hits"
	CntServeSkeletonMisses        = "serve/skeleton_misses"
	CntServeSkeletonEvictions     = "serve/skeleton_evictions"
	CntServeSkeletonInvalidations = "serve/skeleton_invalidations"
	CntServeCompiles              = "serve/compiles"
	CntServeBreakerOpens          = "serve/breaker_opens"
	CntServeBreakerRejected       = "serve/breaker_rejected"
	CntServeBreakerRerouted       = "serve/breaker_rerouted"
	CntServeBreakerProbes         = "serve/breaker_probes"
	CntServeCalibReloads          = "serve/calib_reloads"
)

// Gauge names (point-in-time values; never wall-clock readings).
const (
	GaugeServeInflight   = "serve/inflight"
	GaugeServeQueueDepth = "serve/queue_depth"
)

// Histogram names (fixed-boundary latency distributions in milliseconds,
// over DefaultLatencyBounds). The server-side request histograms are the
// source of truth for latency percentiles: load generators cross-check
// their client-observed quantiles against these, never the reverse.
const (
	// HistServeRequestMS is every POST /v1/compile request's total
	// server-side duration; the Cached/Uncached variants split it by
	// whether the response came from the compiled-circuit cache (a cache
	// hit or a shared singleflight) or paid for a compile flight.
	HistServeRequestMS         = "serve/request_ms"
	HistServeRequestCachedMS   = "serve/request_cached_ms"
	HistServeRequestUncachedMS = "serve/request_uncached_ms"
	// HistServeQueueWaitMS is how long admitted flights waited for a
	// worker slot (leaders only; singleflight waiters never queue).
	HistServeQueueWaitMS = "serve/queue_wait_ms"
)

// ServePresetNames are the compile presets the service tracks per-preset
// latency and SLO state for, in the paper's order. internal/serve asserts
// this list matches compile.Presets (obsv cannot import compile).
var ServePresetNames = []string{"NAIVE", "GreedyV", "QAIM", "IP", "IC", "VIC"}

// HistServePresetMS returns the registered per-preset request-latency
// histogram name ("serve/preset_ms/IC", ...). Unknown presets map to the
// registered catch-all "serve/preset_ms/other" rather than forking an
// unregistered series.
func HistServePresetMS(preset string) string {
	for _, p := range ServePresetNames {
		if p == preset {
			return "serve/preset_ms/" + p
		}
	}
	return "serve/preset_ms/other"
}

// CntServePresetRequests and CntServePresetErrors return the registered
// per-preset availability counters backing the SLO burn-rate computation:
// requests is every response attributed to the preset, errors the subset
// that failed the availability SLO (5xx server faults; shed and deadline
// responses are well-behaved overload, not availability violations).
func CntServePresetRequests(preset string) string {
	for _, p := range ServePresetNames {
		if p == preset {
			return "serve/preset_requests/" + p
		}
	}
	return "serve/preset_requests/other"
}

// CntServePresetErrors is documented with CntServePresetRequests.
func CntServePresetErrors(preset string) string {
	for _, p := range ServePresetNames {
		if p == preset {
			return "serve/preset_errors/" + p
		}
	}
	return "serve/preset_errors/other"
}

// Canonical wide-event log field names. Every field of the one-line
// per-request JSON log object is declared here: dashboards and the CI
// log-schema gate key on these strings, so a typo at a producer would
// silently fork a field the way an unregistered metric would fork a
// series. The qaoalint obsvnames analyzer enforces that WideEvent
// producers use these constants.
const (
	FieldReqID         = "req_id"
	FieldDevice        = "device"
	FieldPreset        = "preset"
	FieldPresetUsed    = "preset_effective"
	FieldCacheHit      = "cache_hit"
	FieldSkeletonHit   = "skeleton_hit"
	FieldShared        = "singleflight_shared"
	FieldQueueWaitMS   = "queue_wait_ms"
	FieldBreakerState  = "breaker"
	FieldFallbackDepth = "fallback_depth"
	FieldAttempts      = "attempts"
	FieldMapMS         = "map_ms"
	FieldOrderMS       = "order_ms"
	FieldRouteMS       = "route_ms"
	FieldDurationMS    = "duration_ms"
	FieldOutcome       = "outcome"
	FieldHTTPStatus    = "http_status"
	FieldErr           = "err"
	FieldSwaps         = "swaps"
	FieldDepth         = "depth"
	FieldGates         = "gates"
	// Fields of the load-generator and sweep summary events.
	FieldPhase     = "phase"
	FieldRequests  = "requests"
	FieldReqPerSec = "req_per_sec"
	FieldP50MS     = "p50_ms"
	FieldP99MS     = "p99_ms"
	FieldShed      = "shed"
	FieldHTTP5xx   = "http_5xx"
)

// NameKind classifies a registered metric name.
type NameKind int

// Registered metric kinds.
const (
	KindCounter NameKind = iota
	KindGauge
	KindSpan
	KindHistogram
)

// String names the kind.
func (k NameKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSpan:
		return "span"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// registry is the complete set of names the pipeline may record.
var registry = map[string]NameKind{
	SpanCompileTotal:    KindSpan,
	SpanCompileMap:      KindSpan,
	SpanCompileOrder:    KindSpan,
	SpanCompileRoute:    KindSpan,
	SpanCompileStitch:   KindSpan,
	SpanExpInstance:     KindSpan,
	SpanLoopExpectation: KindSpan,
	SpanSimIdealRun:     KindSpan,
	SpanSimSampleNoisy:  KindSpan,

	CntCompilations:        KindCounter,
	CntSkeletonCompiles:    KindCounter,
	CntCompileBinds:        KindCounter,
	CntCompileSwaps:        KindCounter,
	CntCompileGates:        KindCounter,
	CntCompileDepthTotal:   KindCounter,
	CntCompileLayers:       KindCounter,
	CntCompileResilient:    KindCounter,
	CntFallbackAttempts:    KindCounter,
	CntFallbackDepthTotal:  KindCounter,
	CntFallbackDegraded:    KindCounter,
	CntRouterTrials:        KindCounter,
	CntRouterRoutes:        KindCounter,
	CntRouterLayers:        KindCounter,
	CntRouterSwaps:         KindCounter,
	CntRouterForcedPaths:   KindCounter,
	CntRouterScoreEvals:    KindCounter,
	CntCompileDistUpdates:  KindCounter,
	CntCompileOrderKeyed:   KindCounter,
	CntDeviceHopDistBuilds: KindCounter,
	CntDeviceHopDistHits:   KindCounter,
	CntDeviceRelDistBuilds: KindCounter,
	CntDeviceRelDistHits:   KindCounter,
	CntDeviceInvalidations: KindCounter,
	CntExpInstances:        KindCounter,
	CntExpRetries:          KindCounter,
	CntExpFailures:         KindCounter,
	CntLoopEvaluations:     KindCounter,
	CntSimRuns:             KindCounter,
	CntSimGates:            KindCounter,
	CntSimAmpOps:           KindCounter,
	CntSimNoisyShots:       KindCounter,
	CntSimTrajectories:     KindCounter,
	CntSimFusedOps:         KindCounter,
	CntSimIdealReuses:      KindCounter,
	CntSimReplays:          KindCounter,
	CntSimReplayGates:      KindCounter,
	CntSimReplayAmpOps:     KindCounter,
	CntSimCheckpoints:      KindCounter,
	CntSimCutTableBuilds:   KindCounter,
	CntTraceEvents:         KindCounter,

	SpanServeRequest: KindSpan,
	SpanServeCompile: KindSpan,

	CntServeRequests:              KindCounter,
	CntServeOK:                    KindCounter,
	CntServeErrors:                KindCounter,
	CntServeBadRequests:           KindCounter,
	CntServeShed:                  KindCounter,
	CntServeDeadlineExceeded:      KindCounter,
	CntServeClientGone:            KindCounter,
	CntServeCacheHits:             KindCounter,
	CntServeCacheMisses:           KindCounter,
	CntServeCacheEvictions:        KindCounter,
	CntServeCacheInvalidations:    KindCounter,
	CntServeSingleflightShared:    KindCounter,
	CntServeSkeletonHits:          KindCounter,
	CntServeSkeletonMisses:        KindCounter,
	CntServeSkeletonEvictions:     KindCounter,
	CntServeSkeletonInvalidations: KindCounter,
	CntServeCompiles:              KindCounter,
	CntServeBreakerOpens:          KindCounter,
	CntServeBreakerRejected:       KindCounter,
	CntServeBreakerRerouted:       KindCounter,
	CntServeBreakerProbes:         KindCounter,
	CntServeCalibReloads:          KindCounter,

	GaugeServeInflight:   KindGauge,
	GaugeServeQueueDepth: KindGauge,

	HistServeRequestMS:         KindHistogram,
	HistServeRequestCachedMS:   KindHistogram,
	HistServeRequestUncachedMS: KindHistogram,
	HistServeQueueWaitMS:       KindHistogram,
}

// The per-preset series (latency histogram + availability counters per
// evaluated preset, plus the "other" catch-alls) are registered
// programmatically: one entry per preset name, derived through the same
// builder functions the producers call.
func init() {
	for _, p := range append(append([]string(nil), ServePresetNames...), "other") {
		registry[HistServePresetMS(p)] = KindHistogram
		registry[CntServePresetRequests(p)] = KindCounter
		registry[CntServePresetErrors(p)] = KindCounter
	}
}

// fieldRegistry is the complete set of canonical wide-event log fields.
var fieldRegistry = map[string]bool{
	FieldReqID:         true,
	FieldDevice:        true,
	FieldPreset:        true,
	FieldPresetUsed:    true,
	FieldCacheHit:      true,
	FieldSkeletonHit:   true,
	FieldShared:        true,
	FieldQueueWaitMS:   true,
	FieldBreakerState:  true,
	FieldFallbackDepth: true,
	FieldAttempts:      true,
	FieldMapMS:         true,
	FieldOrderMS:       true,
	FieldRouteMS:       true,
	FieldDurationMS:    true,
	FieldOutcome:       true,
	FieldHTTPStatus:    true,
	FieldErr:           true,
	FieldSwaps:         true,
	FieldDepth:         true,
	FieldGates:         true,
	FieldPhase:         true,
	FieldRequests:      true,
	FieldReqPerSec:     true,
	FieldP50MS:         true,
	FieldP99MS:         true,
	FieldShed:          true,
	FieldHTTP5xx:       true,
}

// FieldRegistered reports whether name is a canonical wide-event field.
func FieldRegistered(name string) bool { return fieldRegistry[name] }

// RegisteredFields returns every wide-event field name, sorted.
func RegisteredFields() []string {
	out := make([]string, 0, len(fieldRegistry))
	for n := range fieldRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NameRegistered reports whether name is a known metric name.
func NameRegistered(name string) bool {
	_, ok := registry[name]
	return ok
}

// NameKindOf returns the registered kind of name (and false when unknown).
func NameKindOf(name string) (NameKind, bool) {
	k, ok := registry[name]
	return k, ok
}

// RegisteredNames returns every registered name, sorted.
func RegisteredNames() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Unregistered returns every name recorded in the snapshot that the
// registry does not know, sorted — the drift detector the pipeline test
// asserts empty.
func (s Snapshot) Unregistered() []string {
	var out []string
	for n := range s.Counters {
		if k, ok := registry[n]; !ok || k != KindCounter {
			out = append(out, n)
		}
	}
	for n := range s.Gauges {
		if k, ok := registry[n]; !ok || k != KindGauge {
			out = append(out, n)
		}
	}
	for _, sp := range s.Spans {
		if k, ok := registry[sp.Name]; !ok || k != KindSpan {
			out = append(out, sp.Name)
		}
	}
	for _, h := range s.Hists {
		if k, ok := registry[h.Name]; !ok || k != KindHistogram {
			out = append(out, h.Name)
		}
	}
	sort.Strings(out)
	return out
}
