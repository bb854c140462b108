package compile

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/router"
	"repro/internal/trace"
)

// PanicError wraps a panic recovered at the compile boundary. Pass bugs and
// device-model panics (e.g. a calibration query on a severed edge) surface
// as ordinary errors instead of crashing the caller; Value holds the
// original panic payload so typed panics (like *device.NotCoupledError)
// remain inspectable via errors.As on the Unwrap chain.
type PanicError struct {
	Stage string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("compile: panic in %s pass: %v", e.Stage, e.Value)
}

// Unwrap exposes a panic payload that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Result is a compiled QAOA circuit with its quality metrics.
type Result struct {
	// Circuit is the hardware-compliant physical circuit over the device
	// register, in high-level gates (H/CPhase/RZ/RX/Swap/Measure).
	Circuit *circuit.Circuit
	// Native is Circuit decomposed into the IBM basis {U1,U2,U3,CNOT}; the
	// depth and gate-count metrics are measured on it, as the paper does.
	Native *circuit.Circuit
	// Initial and Final are the logical-to-physical layouts before and
	// after SWAP insertion. Final tells which physical qubit to read out
	// for each logical qubit.
	Initial, Final *router.Layout
	// SwapCount is the number of inserted SWAP gates.
	SwapCount int
	// Depth and GateCount are measured on Native.
	Depth, GateCount int
	// CompileTime is the total wall-clock compilation duration;
	// MapTime, OrderTime and RouteTime break it down into the initial
	// mapping pass, the gate-ordering/layer-formation pass, and the
	// backend SWAP-insertion routing. The backend share is what a
	// conventional compiler's runtime corresponds to (see EXPERIMENTS.md
	// on compile-time normalization).
	CompileTime time.Duration
	MapTime     time.Duration
	OrderTime   time.Duration
	RouteTime   time.Duration
	// Fallback records how the graceful-degradation ladder arrived at this
	// result (requested vs effective preset, retries, reasons). It is nil
	// for direct Compile/CompileSpec calls, and always set by
	// CompileResilient — even on the happy path, where Degraded is false.
	Fallback *FallbackInfo
}

// ExtractLogical converts a measured physical bitstring y (bit p = physical
// qubit p) into the logical bitstring (bit v = vertex v) using the final
// layout — the read-out rule for compiled-circuit samples.
func (r *Result) ExtractLogical(y uint64) uint64 {
	var x uint64
	for q := 0; q < r.Final.NLogical(); q++ {
		if y&(1<<uint(r.Final.Phys(q))) != 0 {
			x |= 1 << uint(q)
		}
	}
	return x
}

// Compile lowers the QAOA MaxCut circuit for prob with the given angles
// onto dev using the configured methodology, and returns the compiled
// circuit with metrics. It is the MaxCut entry point; CompileSpec accepts
// arbitrary commuting cost Hamiltonians.
func Compile(prob *qaoa.Problem, params qaoa.Params, dev *device.Device, opts Options) (*Result, error) {
	return CompileContext(context.Background(), prob, params, dev, opts)
}

// CompileContext is Compile honoring a deadline/cancellation: the mapping,
// ordering and routing passes check ctx and return a ctx-wrapped error as
// soon as it is done.
func CompileContext(ctx context.Context, prob *qaoa.Problem, params qaoa.Params, dev *device.Device, opts Options) (*Result, error) {
	spec, err := SpecFromMaxCut(prob, params)
	if err != nil {
		return nil, err
	}
	return CompileSpecContext(ctx, spec, dev, opts)
}

// CompileSpec lowers an arbitrary commuting-cost QAOA circuit onto dev,
// tying together mapping (QAIM/GreedyV/random), term ordering (random/IP)
// and routing (whole-circuit or incremental).
func CompileSpec(spec Spec, dev *device.Device, opts Options) (*Result, error) {
	return CompileSpecContext(context.Background(), spec, dev, opts)
}

// CompileSpecContext is CompileSpec honoring ctx. It is also the recover
// boundary of the pipeline: a panic in any pass (or injected through
// Options.Hook) is converted into a *PanicError instead of escaping to the
// caller, so one bad compilation cannot take down a batch or a service.
func CompileSpecContext(ctx context.Context, spec Spec, dev *device.Device, opts Options) (res *Result, err error) {
	stage := StageMap
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Stage: stage, Value: r}
		}
	}()
	o := opts.withDefaults()
	total := o.Obs.StartSpan(obsv.SpanCompileTotal)
	defer total.End()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.N > dev.NQubits() {
		return nil, &InsufficientQubitsError{Device: dev.Name, Need: spec.N, Usable: dev.NQubits(), Total: dev.NQubits()}
	}
	if o.Strategy == IncrementalVariation && dev.Calib == nil {
		return nil, fmt.Errorf("compile: VIC requires device calibration on %s", dev.Name)
	}
	if err := checkpoint(ctx, StageMap, o.Hook); err != nil {
		return nil, err
	}
	traceStart := o.Trace.Len()
	if o.Trace.Enabled() {
		o.Trace.Meta(traceMeta(ctx, spec, dev, o))
	}
	start := time.Now() //lint:allow determinism: measured pass span, stripped by the gates

	o.Trace.BeginPass(StageMap)
	var initial *router.Layout
	if o.Mapper == MapReverse {
		initial, err = ReverseTraversalMapping(spec, dev, o.ReverseIterations, o)
	} else {
		initial, err = buildMapping(spec.InteractionGraph(), dev, o)
	}
	o.Trace.EndPass(StageMap)
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start) //lint:allow determinism: measured pass span, stripped by the gates
	o.Obs.RecordSpan(obsv.SpanCompileMap, mapTime)

	switch o.Strategy {
	case WholeRandom, WholeIP, WholeColor:
		stage = StageOrder
		res, err = compileWhole(ctx, spec, dev, initial, o, &stage)
	case Incremental, IncrementalVariation:
		stage = StageRoute
		res, err = compileIncremental(ctx, spec, dev, initial, o)
	default:
		return nil, fmt.Errorf("compile: unknown strategy %v", o.Strategy)
	}
	if err != nil {
		return nil, err
	}

	if o.Optimize {
		res.Circuit = circuit.Peephole(res.Circuit)
	}
	res.Native = res.Circuit.Decompose(circuit.BasisIBM)
	if o.Optimize {
		res.Native = circuit.Peephole(res.Native)
	}
	res.Depth = res.Native.Depth()
	res.GateCount = res.Native.GateCount()
	res.CompileTime = time.Since(start) //lint:allow determinism: measured pass span, stripped by the gates
	res.MapTime = mapTime
	if o.Obs.Enabled() {
		o.Obs.RecordSpan(obsv.SpanCompileOrder, res.OrderTime)
		o.Obs.RecordSpan(obsv.SpanCompileRoute, res.RouteTime)
		o.Obs.Inc(obsv.CntCompilations)
		o.Obs.Add(obsv.CntCompileSwaps, int64(res.SwapCount))
		o.Obs.Add(obsv.CntCompileGates, int64(res.GateCount))
		o.Obs.Add(obsv.CntCompileDepthTotal, int64(res.Depth))
		if o.Trace.Enabled() {
			o.Obs.Add(obsv.CntTraceEvents, int64(o.Trace.Len()-traceStart))
		}
	}
	return res, nil
}

// traceMeta describes the compilation for the trace stream, including the
// coupling graph so the exporters are self-contained. A request ID carried
// by ctx (service compilations) is stamped into the meta event, joining the
// trace to the request's log line and inspector record.
func traceMeta(ctx context.Context, spec Spec, dev *device.Device, o Options) trace.MetaInfo {
	edges := dev.Coupling.Edges()
	coupling := make([][2]int, len(edges))
	for i, e := range edges {
		coupling[i] = [2]int{e.U, e.V}
	}
	return trace.MetaInfo{
		Device:    dev.Name,
		NQubits:   dev.NQubits(),
		Coupling:  coupling,
		NLogical:  spec.N,
		Mapper:    o.Mapper.String(),
		Strategy:  o.Strategy.String(),
		RequestID: obsv.RequestID(ctx),
	}
}

// checkpoint enforces ctx and fires the pass hook at a stage boundary.
func checkpoint(ctx context.Context, stage string, hook Hook) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("compile: %s pass: %w", stage, err)
	}
	if hook != nil {
		if err := hook(stage); err != nil {
			return fmt.Errorf("compile: %s pass: %w", stage, err)
		}
		// A latency-injecting hook may outlive the deadline; re-check.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("compile: %s pass: %w", stage, err)
		}
	}
	return nil
}

// emitLocals appends the level's RZ phases mapped through the layout.
func emitLocals(out *circuit.Circuit, level LevelSpec, phys func(int) int) {
	if level.Local == nil {
		return
	}
	for q, theta := range level.Local {
		if theta != 0 {
			out.Append(circuit.NewRZ(phys(q), theta))
		}
	}
}

// compileWhole builds the complete logical circuit (with the strategy's
// ZZ-term order) and routes it in a single backend call — the NAIVE/QAIM/IP
// flow of Fig. 2. stage tracks the running pass for panic attribution.
func compileWhole(ctx context.Context, spec Spec, dev *device.Device, initial *router.Layout, o Options, stage *string) (*Result, error) {
	if err := checkpoint(ctx, StageOrder, o.Hook); err != nil {
		return nil, err
	}
	o.Trace.BeginPass(StageOrder)
	orderStart := time.Now() //lint:allow determinism: measured pass span, stripped by the gates
	logical := circuit.New(spec.N)
	fixed, _ := fixedGates(spec, o.Measure)
	logical.Gates = make([]circuit.Gate, 0, fixed)
	for q := 0; q < spec.N; q++ {
		logical.Append(circuit.NewH(q))
	}
	for _, level := range spec.Levels {
		var ordered []ZZTerm
		switch o.Strategy {
		case WholeRandom:
			ordered = RandomTermOrder(level.ZZ, o.Rng)
		case WholeIP:
			ordered = flattenTermLayers(IPTermLayers(spec.N, level.ZZ, o.Rng, o.PackingLimit))
		case WholeColor:
			var err error
			ordered, err = ColorTermOrder(spec.N, level.ZZ)
			if err != nil {
				return nil, err
			}
		}
		emitLocals(logical, level, func(q int) int { return q })
		for _, t := range ordered {
			logical.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
		}
		for q := 0; q < spec.N; q++ {
			logical.Append(circuit.NewRX(q, 2*level.MixerBeta))
		}
	}
	if o.Measure {
		logical.MeasureAll()
	}
	orderTime := time.Since(orderStart) //lint:allow determinism: measured pass span, stripped by the gates
	o.Trace.EndPass(StageOrder)

	*stage = StageRoute
	if err := checkpoint(ctx, StageRoute, o.Hook); err != nil {
		return nil, err
	}
	r := router.New(dev)
	r.LookaheadWeight = o.LookaheadWeight
	r.Trials, r.Rng = o.RouterTrials, o.Rng
	r.Obs = o.Obs
	r.Trace = o.Trace
	o.Trace.BeginPass(StageRoute)
	routeStart := time.Now() //lint:allow determinism: measured pass span, stripped by the gates
	routed, err := r.RouteContext(ctx, logical, initial)
	o.Trace.EndPass(StageRoute)
	if err != nil {
		return nil, err
	}
	return &Result{
		Circuit:   routed.Circuit,
		Initial:   routed.Initial,
		Final:     routed.Final,
		SwapCount: routed.SwapCount,
		OrderTime: orderTime,
		RouteTime: time.Since(routeStart), //lint:allow determinism: measured pass span, stripped by the gates
	}, nil
}

// compileIncremental is the IC/VIC flow of Fig. 2: ZZ layers are formed
// one at a time from the terms whose endpoints are closest under the
// current layout, each layer is routed as a partial circuit, and the
// partial circuits are stitched. VIC differs only in the distance matrix
// (reliability-weighted) handed to layer formation and routing.
func compileIncremental(ctx context.Context, spec Spec, dev *device.Device, initial *router.Layout, o Options) (*Result, error) {
	dist := dev.HopDistances()
	if o.Strategy == IncrementalVariation {
		dist = dev.ReliabilityDistances()
	}
	r := &router.Router{
		Dev: dev, Dist: dist, LookaheadWeight: o.LookaheadWeight,
		Trials: o.RouterTrials, Rng: o.Rng, Obs: o.Obs, Trace: o.Trace,
	}

	n := spec.N
	out := circuit.New(dev.NQubits())
	// Every gate but the SWAPs is known up front; allow one SWAP per ZZ
	// term, which covers typical routing without a regrow.
	fixed, zz := fixedGates(spec, o.Measure)
	out.Gates = make([]circuit.Gate, 0, fixed+zz)
	layout := initial.Clone()
	swaps := 0
	layerIdx := 0
	var orderTime, routeTime time.Duration

	// Initial H layer, mapped through the initial layout.
	for q := 0; q < n; q++ {
		out.Append(circuit.NewH(layout.Phys(q)))
	}

	// Layer-formation scratch, reused across every pack of the compile, at
	// its high-water sizes: a level's terms, and a matching's worth of
	// terms per layer. remainingBuf holds the level's unplaced terms; the
	// single-layer partial circuit is copied out by the router.
	maxZZ := 0
	for _, level := range spec.Levels {
		maxZZ = max(maxZZ, len(level.ZZ))
	}
	lf := layerFormer{
		occupied: make([]bool, n),
		layer:    make([]ZZTerm, 0, n/2),
		sorted:   make([]keyedTerm, 0, maxZZ),
	}
	remainingBuf := make([]ZZTerm, 0, maxZZ)
	partial := &circuit.Circuit{NQubits: n, Gates: make([]circuit.Gate, 0, n/2)}
	for li, level := range spec.Levels {
		emitLocals(out, level, layout.Phys)
		remaining := append(remainingBuf[:0], level.ZZ...)
		for len(remaining) > 0 {
			if err := checkpoint(ctx, StageRoute, o.Hook); err != nil {
				return nil, err
			}
			o.Trace.BeginPass(StageOrder)
			orderStart := time.Now() //lint:allow determinism: measured pass span, stripped by the gates
			layer, rest := lf.next(remaining, layout, dist, o)
			// Route the single-layer partial circuit from the live layout.
			partial.Gates = partial.Gates[:0]
			for _, t := range layer {
				partial.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
			}
			orderTime += time.Since(orderStart) //lint:allow determinism: measured pass span, stripped by the gates
			o.Trace.EndPass(StageOrder)
			if o.Trace.Enabled() {
				o.Trace.Layer(traceLayer(layerIdx, li, layer, rest, layout, dist))
			}
			o.Trace.BeginPass(StageRoute)
			routeStart := time.Now() //lint:allow determinism: measured pass span, stripped by the gates
			routed, err := r.RouteContext(ctx, partial, layout)
			if err != nil {
				o.Trace.EndPass(StageRoute)
				return nil, err
			}
			routeTime += time.Since(routeStart) //lint:allow determinism: measured pass span, stripped by the gates
			o.Trace.EndPass(StageRoute)
			stitch := o.Obs.StartSpan(obsv.SpanCompileStitch)
			out.AppendCircuit(routed.Circuit)
			stitch.End()
			o.Obs.Inc(obsv.CntCompileLayers)
			if o.Trace.Enabled() {
				o.Trace.Stitch(trace.StitchInfo{
					Layer: layerIdx,
					Gates: len(routed.Circuit.Gates),
					Swaps: routed.SwapCount,
				})
			}
			// Stitched: the routed gates now live in out, and the routed
			// layout supersedes the one this pack started from.
			routed.ReleaseCircuit()
			layout.Release()
			layerIdx++
			layout = routed.Final
			swaps += routed.SwapCount
			remaining = rest
		}
		// Mixer layer under the current layout.
		for q := 0; q < n; q++ {
			out.Append(circuit.NewRX(layout.Phys(q), 2*level.MixerBeta))
		}
	}
	if o.Measure {
		for q := 0; q < n; q++ {
			out.Append(circuit.NewMeasure(layout.Phys(q)))
		}
	}
	o.Obs.Add(obsv.CntCompileOrderKeyed, lf.keyed)
	return &Result{
		Circuit:   out,
		Initial:   initial,
		Final:     layout,
		SwapCount: swaps,
		OrderTime: orderTime,
		RouteTime: routeTime,
	}, nil
}

// traceLayer snapshots one incremental layer-formation decision: the
// selected terms with the live distances that ranked them, and how much
// work was deferred.
func traceLayer(index, level int, layer, rest []ZZTerm, layout *router.Layout, dist *graphs.DistanceMatrix) trace.LayerInfo {
	terms := make([]trace.TermInfo, len(layer))
	for i, t := range layer {
		pu, pv := layout.Phys(t.U), layout.Phys(t.V)
		terms[i] = trace.TermInfo{U: t.U, V: t.V, PU: pu, PV: pv, Dist: dist.Dist(pu, pv)}
	}
	return trace.LayerInfo{Index: index, Level: level, Terms: terms, Deferred: len(rest)}
}

// fixedGates counts the gates a compilation emits besides SWAPs — the H
// layer, every level's nonzero RZ phases, ZZ terms and mixer, and the
// measurements — and, separately, the ZZ terms alone.
func fixedGates(spec Spec, measure bool) (fixed, zz int) {
	fixed = spec.N
	for _, level := range spec.Levels {
		for _, theta := range level.Local {
			if theta != 0 {
				fixed++
			}
		}
		zz += len(level.ZZ)
		fixed += len(level.ZZ) + spec.N
	}
	if measure {
		fixed += spec.N
	}
	return fixed, zz
}

// keyedTerm is a ZZ term with its layer-formation sort key: the current
// physical distance between its endpoints.
type keyedTerm struct {
	d float64
	t ZZTerm
}

// layerFormer is IC/VIC layer formation's storage, reused across every pack
// of one compile: the per-logical-qubit occupancy flags (all false between
// packs), the packed-layer buffer and the keyed sort scratch. keyed counts
// the terms keyed so far (compile/order_terms_keyed).
type layerFormer struct {
	occupied []bool
	layer    []ZZTerm
	sorted   []keyedTerm
	keyed    int64
}

// next sorts the remaining ZZ terms by the current physical distance of
// their endpoints (ascending, ties random) and packs one layer greedily.
// Each term's distance is computed once into the keyed scratch before a
// stable sort on the key; a stable sort's output is fixed by the keys and
// the input order, so this matches sorting with a comparator that looks
// the distances up per comparison. The layer lands in the former's buffer
// (valid until the next call) and the deferred terms are compacted into
// remaining's own storage, so a pack allocates nothing once the scratch
// reaches its high-water mark.
func (lf *layerFormer) next(remaining []ZZTerm, layout *router.Layout, dist *graphs.DistanceMatrix, o Options) (layer, rest []ZZTerm) {
	o.Rng.Shuffle(len(remaining), func(i, j int) {
		remaining[i], remaining[j] = remaining[j], remaining[i]
	})
	sorted := lf.sorted[:0]
	for _, t := range remaining {
		sorted = append(sorted, keyedTerm{d: dist.Dist(layout.Phys(t.U), layout.Phys(t.V)), t: t})
	}
	lf.sorted = sorted
	lf.keyed += int64(len(sorted))
	slices.SortStableFunc(sorted, func(a, b keyedTerm) int {
		switch {
		case a.d < b.d:
			return -1
		case b.d < a.d:
			return 1
		}
		return 0
	})
	occupied := lf.occupied
	layer = lf.layer[:0]
	rest = remaining[:0]
	for _, k := range sorted {
		t := k.t
		if (o.PackingLimit > 0 && len(layer) >= o.PackingLimit) ||
			occupied[t.U] || occupied[t.V] {
			rest = append(rest, t)
			continue
		}
		layer = append(layer, t)
		occupied[t.U], occupied[t.V] = true, true
	}
	for _, t := range layer {
		occupied[t.U], occupied[t.V] = false, false
	}
	lf.layer = layer
	return layer, rest
}
