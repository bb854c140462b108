package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// DisconnectedError reports that routing required moving a qubit between two
// physical qubits with no coupling path — the signature failure of a
// degraded device whose coupling graph has been severed.
type DisconnectedError struct {
	Device string
	A, B   int
}

func (e *DisconnectedError) Error() string {
	return fmt.Sprintf("router: physical qubits %d and %d disconnected on %s", e.A, e.B, e.Device)
}

// ErrTrialsWithoutRng reports the Router misuse of requesting stochastic
// trials (Trials > 1) without supplying the Rng that seeds their shuffles.
// Compare with errors.Is.
var ErrTrialsWithoutRng = errors.New("router: Trials > 1 requires Rng")

// errTrialPruned aborts a stochastic trial that exceeded the pruning cap
// (see routeTrials); it never escapes the router.
var errTrialPruned = errors.New("router: trial pruned")

// noSwapCap disables trial pruning (single-shot routing, trial 0, traced
// replays).
const noSwapCap = math.MaxInt

// Router inserts SWAPs to make a logical circuit comply with a device's
// coupling constraints. It is the layer-partitioning heuristic backend the
// paper describes for conventional compilers (§III "SWAP Insertion"): the
// circuit is split into layers of concurrently executable gates and SWAPs
// are added before each layer until all of its two-qubit gates touch
// coupled pairs.
type Router struct {
	// Dev is the routing target.
	Dev *device.Device
	// Dist supplies inter-qubit distances for SWAP scoring and path
	// selection. IC uses hop distances; VIC passes reliability-weighted
	// distances so SWAP chains prefer reliable links. Defaults to the
	// device's hop distances.
	Dist *graphs.DistanceMatrix
	// LookaheadWeight blends the next layer's gate distances into the SWAP
	// score (0 disables lookahead; default 0.5).
	LookaheadWeight float64
	// Trials > 1 routes the circuit that many times with randomized
	// tie-breaking (a shuffled coupling-edge scan order, seeded by Rng) and
	// keeps the attempt with the fewest SWAPs — the stochastic-swap
	// strategy of conventional compilers. Trials ≤ 1 is single-shot
	// deterministic routing. The attempts are independent by construction
	// and run in parallel across GOMAXPROCS workers; see routeTrials for
	// the determinism contract that keeps the result identical regardless
	// of core count.
	Trials int
	// Rng seeds the trial shuffles; required when Trials > 1. It is only
	// consulted in the sequential prologue of routeTrials (never from the
	// worker goroutines), so a single seeded source is safe and the draw
	// sequence is schedule-independent.
	Rng *rand.Rand
	// Obs, when non-nil, receives routing counters: router/routes,
	// router/layers, router/swaps, router/forced_paths, router/trials,
	// and the deterministic scoring-work counters router/score_evals and
	// compile/dist_updates. Counters are batched per routing call, so the
	// per-gate hot loop never touches the collector.
	Obs *obsv.Collector
	// Trace, when non-nil, receives one event per inserted SWAP carrying
	// the (before, after) layout and the distance the SWAP paid. With
	// Trials > 1 the stochastic attempts run untraced and the winning
	// attempt is re-routed once with tracing, so the stream tells the story
	// of the kept circuit only.
	Trace *trace.Tracer

	// edgeOrder overrides the coupling-edge scan order for tie-breaking
	// (nil: the device's canonical order).
	edgeOrder []graphs.Edge
}

// New returns a Router over dev using hop distances and default lookahead.
func New(dev *device.Device) *Router {
	return &Router{Dev: dev, Dist: dev.HopDistances(), LookaheadWeight: 0.5}
}

// Result is a routed circuit plus layout bookkeeping.
type Result struct {
	// Circuit is the hardware-compliant physical circuit (register size =
	// device qubits). Two-qubit gates act only on coupling edges.
	Circuit *circuit.Circuit
	// Initial and Final are the layouts before and after routing.
	Initial, Final *Layout
	// SwapCount is the number of SWAP gates inserted.
	SwapCount int
}

// ReleaseCircuit hands the routed circuit's gate buffer back to the
// router's pool for a later routing call to reuse. It is for a caller that
// has copied the gates out (IC/VIC stitching); r.Circuit is nil afterwards.
func (r *Result) ReleaseCircuit() {
	putCircuit(r.Circuit)
	r.Circuit = nil
}

// Route compiles the logical circuit c onto the device starting from the
// given initial layout (TrivialLayout when nil). The input gate order is
// respected up to concurrency: gates are processed in ASAP layers. With
// Trials > 1 the best of several randomized-tie-break attempts is returned.
func (r *Router) Route(c *circuit.Circuit, initial *Layout) (*Result, error) {
	return r.RouteContext(context.Background(), c, initial)
}

// RouteContext is Route honoring a deadline/cancellation: the routing loop
// checks ctx between layers and between SWAP insertions and returns a
// ctx-wrapped error as soon as the context is done.
func (r *Router) RouteContext(ctx context.Context, c *circuit.Circuit, initial *Layout) (*Result, error) {
	initial, dist, err := r.validate(c, initial)
	if err != nil {
		return nil, err
	}
	plan := buildPlan(c, r.LookaheadWeight > 0)
	defer putPlan(plan)
	tab := devTablesFor(r.Dev, dist)
	var res *Result
	if r.Trials > 1 {
		res, err = r.routeTrials(ctx, plan, initial, dist, tab)
	} else {
		res, err = r.routePlanned(ctx, plan, initial, dist, tab, noSwapCap)
	}
	//lint:allow poolsafe: routing copies every gate it emits into the output circuit; nothing in the Result aliases the plan — TestRouteResultOutlivesPooledPlan guards this
	return res, err
}

// validate checks the circuit/layout/device shapes once per Route call and
// resolves the defaults (trivial layout, hop distances).
func (r *Router) validate(c *circuit.Circuit, initial *Layout) (*Layout, *graphs.DistanceMatrix, error) {
	dev := r.Dev
	if c.NQubits > dev.NQubits() {
		return nil, nil, fmt.Errorf("router: circuit needs %d qubits, device %s has %d", c.NQubits, dev.Name, dev.NQubits())
	}
	if initial == nil {
		initial = TrivialLayout(c.NQubits, dev.NQubits())
	}
	if initial.NLogical() != c.NQubits || initial.NPhysical() != dev.NQubits() {
		return nil, nil, fmt.Errorf("router: layout shape (%d,%d) does not match circuit %d / device %d",
			initial.NLogical(), initial.NPhysical(), c.NQubits, dev.NQubits())
	}
	dist := r.Dist
	if dist == nil {
		dist = dev.HopDistances()
	}
	return initial, dist, nil
}

// layerPlan is the routing work of one ASAP layer, precomputed once per
// Route call and shared read-only by every stochastic trial: the one-qubit
// gates to pass through, the two-qubit gates to route, and the next
// layer's two-qubit gates feeding the lookahead score.
type layerPlan struct {
	oneQ []circuit.Gate
	twoQ []circuit.Gate
	next []circuit.Gate
}

// routePlan is the shared per-call routing plan plus the input gate total
// (the output-circuit presizing hint). Plans are pooled: the layers are
// views of one flat gate array, and the ASAP-schedule scratch rides along,
// so a warm plan builds without allocating. A plan never outlives its
// RouteContext call — every gate it holds is copied into the output.
type routePlan struct {
	layers []layerPlan
	gates  int

	flat    []circuit.Gate // every layer's one- then two-qubit gates
	layerOf []int          // ASAP step per input gate
	level   []int          // per-qubit schedule scratch
	off     []int          // segment offsets: 2t one-qubit, 2t+1 two-qubit of layer t
}

var planPool = sync.Pool{New: func() any { return new(routePlan) }}

// putPlan recycles a plan whose RouteContext call has returned.
func putPlan(p *routePlan) { planPool.Put(p) }

// buildPlan partitions c into ASAP layers split by arity, keeping program
// order within each layer. With lookahead enabled, each layer references
// the next layer's two-qubit gates.
func buildPlan(c *circuit.Circuit, lookahead bool) *routePlan {
	p := planPool.Get().(*routePlan)
	p.gates = len(c.Gates)
	if cap(p.level) < c.NQubits {
		p.level = make([]int, c.NQubits)
	}
	var nLayers int
	p.layerOf, nLayers = c.LayerOf(p.layerOf[:0], p.level[:c.NQubits])

	// Count every (layer, arity) segment, turn the counts into start
	// offsets, then place the gates; each placement advances its segment's
	// offset, leaving off[k] at segment k's end.
	nSeg := 2 * nLayers
	if cap(p.off) < nSeg+1 {
		p.off = make([]int, nSeg+1)
	}
	off := p.off[:nSeg+1]
	clear(off)
	for i, t := range p.layerOf {
		if t >= 0 {
			off[2*t+c.Gates[i].Arity()]++ // segment 2t+arity-1, counted one slot up
		}
	}
	for k := 1; k <= nSeg; k++ {
		off[k] += off[k-1]
	}
	if cap(p.flat) < off[nSeg] {
		p.flat = make([]circuit.Gate, off[nSeg])
	}
	flat := p.flat[:off[nSeg]]
	for i, t := range p.layerOf {
		if t >= 0 {
			k := 2*t + c.Gates[i].Arity() - 1
			flat[off[k]] = c.Gates[i]
			off[k]++
		}
	}
	if cap(p.layers) < nLayers {
		p.layers = make([]layerPlan, nLayers)
	}
	p.layers = p.layers[:nLayers]
	start := 0
	for t := range p.layers {
		mid, end := off[2*t], off[2*t+1]
		p.layers[t] = layerPlan{oneQ: flat[start:mid:mid], twoQ: flat[mid:end:end]}
		start = end
	}
	if lookahead {
		for t := 0; t+1 < nLayers; t++ {
			p.layers[t].next = p.layers[t+1].twoQ
		}
	}
	return p
}

// trial is the one construction path for a stochastic routing attempt: the
// same device, distances and collector as the parent, the trial's edge
// scan order, single-shot, untraced (only the kept attempt is re-routed
// with tracing).
func (r *Router) trial(order []graphs.Edge) *Router {
	t := *r
	t.Trials = 0
	t.Trace = nil
	t.edgeOrder = order
	return &t
}

// routeTrials runs Trials randomized attempts and keeps the fewest-SWAP one
// (ties: lowest trial index). Trial 0 — the canonical, unshuffled scan
// order — runs first and fixes the pruning cap: a later attempt that
// reaches trial 0's swap count can no longer win (it would at best tie, and
// ties go to the lowest index), so it aborts on the spot. The remaining
// trials then run in parallel across min(GOMAXPROCS, Trials-1) workers.
//
// Determinism contract: trial randomness is exactly the shuffled edge scan
// order, and every shuffle is drawn from Rng in a cheap sequential prologue
// before the fan-out — the per-trial analogue of the simulator's splitmix64
// substreams. Routing itself is a pure function of (circuit, layout, edge
// order, pruning cap), the cap is fixed before any worker starts, and the
// reduction is by (SwapCount, trial index), so the returned Result is
// byte-identical regardless of GOMAXPROCS and identical to a sequential
// best-of-N loop without pruning. On the success path the batched counters
// are sums over all trials and equally schedule-independent; on an error
// path, in-flight trials may add work to the counters that a sequential
// loop would not have started.
func (r *Router) routeTrials(ctx context.Context, plan *routePlan, initial *Layout, dist *graphs.DistanceMatrix, tab *devTables) (*Result, error) {
	if r.Rng == nil {
		return nil, ErrTrialsWithoutRng
	}
	r.Obs.Add(obsv.CntRouterTrials, int64(r.Trials))

	// Sequential prologue: fix every trial's edge order before any worker
	// starts. Trial 0 keeps the canonical order (the deterministic
	// single-shot attempt); trials 1..n-1 shuffle it.
	canonical := r.Dev.Coupling.Edges()
	m := len(canonical)
	buf := make([]graphs.Edge, (r.Trials-1)*m) // one backing array for all shuffles
	orders := make([][]graphs.Edge, r.Trials)
	for t := 1; t < r.Trials; t++ {
		order := buf[(t-1)*m : t*m : t*m]
		copy(order, canonical)
		r.Rng.Shuffle(m, func(i, j int) { order[i], order[j] = order[j], order[i] })
		orders[t] = order
	}

	first, err := r.trial(nil).routePlanned(ctx, plan, initial, dist, tab, noSwapCap)
	if err != nil {
		return nil, err
	}
	swapCap := first.SwapCount - 1

	results := make([]*Result, r.Trials)
	results[0] = first
	errs := make([]error, r.Trials)
	workers := min(runtime.GOMAXPROCS(0), r.Trials-1)
	if workers <= 1 {
		for t := 1; t < r.Trials; t++ {
			res, err := r.trial(orders[t]).routePlanned(ctx, plan, initial, dist, tab, swapCap)
			if errors.Is(err, errTrialPruned) {
				continue
			}
			if err != nil {
				return nil, err
			}
			results[t] = res
		}
	} else {
		// Work-stealing fan-out: trials are claimed in index order from an
		// atomic cursor; a failure stops further claims (in-flight trials
		// finish on their own — they honor ctx themselves), which
		// guarantees every trial below the lowest failing index has run, so
		// the error reduction below is schedule-independent.
		var cursor, failed atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for failed.Load() == 0 && ctx.Err() == nil {
					t := int(cursor.Add(1))
					if t >= r.Trials {
						return
					}
					res, err := r.trial(orders[t]).routePlanned(ctx, plan, initial, dist, tab, swapCap)
					if errors.Is(err, errTrialPruned) {
						continue
					}
					if err != nil {
						errs[t] = err
						failed.Store(1)
						return
					}
					results[t] = res
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	win := 0
	for t := 1; t < r.Trials; t++ {
		if results[t] != nil && results[t].SwapCount < results[win].SwapCount {
			win = t
		}
	}
	if r.Trace.Enabled() {
		// Replay the winning attempt with tracing: routing is deterministic
		// given the edge scan order, so the replayed result is the one
		// returned and the trace describes exactly it.
		replay := r.trial(orders[win])
		replay.Trace = r.Trace
		res, err := replay.routePlanned(ctx, plan, initial, dist, tab, noSwapCap)
		if err == nil {
			recycleTrials(results, -1)
		}
		return res, err
	}
	recycleTrials(results, win)
	return results[win], nil
}

// recycleTrials returns the losing trials' final layouts and routed
// circuits to their pools (the winner's, index keep, escape to the caller;
// pass -1 to recycle every trial, used after a traced replay superseded
// them all).
func recycleTrials(results []*Result, keep int) {
	for t, res := range results {
		if t != keep && res != nil {
			putLayout(res.Final)
			putCircuit(res.Circuit)
		}
	}
}

// routePlanned performs one deterministic routing pass over the shared
// plan, aborting with errTrialPruned as soon as the inserted-SWAP total
// exceeds swapCap (noSwapCap disables pruning). It is the single-trial
// execution core: every allocation it makes beyond the returned Result
// comes from pooled scratch (layout clone, scoring state), so stochastic
// trials are cheap and GC-quiet.
func (r *Router) routePlanned(ctx context.Context, plan *routePlan, initial *Layout, dist *graphs.DistanceMatrix, tab *devTables, swapCap int) (*Result, error) {
	layout := getLayout(initial)
	// Presize for the common case: every input gate plus a swap allowance;
	// heavy routing still grows the slice, it just starts realistic.
	out := getCircuit(r.Dev.NQubits(), plan.gates+plan.gates/2+8)
	sc := getScorer()
	sc.evals, sc.updates = 0, 0 // pooled scorers may carry another call's tallies
	defer putScorer(sc)
	swaps := 0
	var rerr error

	for li := range plan.layers {
		if err := ctx.Err(); err != nil {
			rerr = fmt.Errorf("router: %w", err)
			break
		}
		lp := &plan.layers[li]
		for _, g := range lp.oneQ {
			// Remaps of validated gates onto in-range layout positions:
			// appended directly, skipping Circuit.Append's re-validation.
			mapped := g
			mapped.Q0 = layout.Phys(g.Q0)
			out.Gates = append(out.Gates, mapped)
		}
		layerSwaps, err := r.routeLayer(ctx, li, lp, layout, out, sc, dist, tab, swapCap-swaps)
		swaps += layerSwaps
		if err != nil {
			rerr = err
			break
		}
	}

	// Batched per call, on every exit: the counters measure routing work
	// performed — every stochastic trial counts, pruned and failed attempts
	// included (with the pruning cap fixed before the fan-out, a pruned
	// trial's partial work is as deterministic as a completed one's) —
	// while compile/swaps counts only the SWAPs of the kept result.
	if r.Obs.Enabled() {
		r.Obs.Inc(obsv.CntRouterRoutes)
		r.Obs.Add(obsv.CntRouterLayers, int64(len(plan.layers)))
		r.Obs.Add(obsv.CntRouterSwaps, int64(swaps))
		r.Obs.Add(obsv.CntRouterScoreEvals, sc.evals)
		r.Obs.Add(obsv.CntCompileDistUpdates, sc.updates)
	}
	if rerr != nil {
		putLayout(layout)
		putCircuit(out)
		return nil, rerr
	}
	return &Result{Circuit: out, Initial: initial, Final: layout, SwapCount: swaps}, nil
}

// routeLayer emits the layer's two-qubit gates, inserting SWAPs as needed,
// and returns the number of SWAPs added — pruning the attempt with
// errTrialPruned once they exceed budget (the caller's remaining swap
// allowance). The layout is updated in place; sc carries the incremental
// scoring state (and its work counters) across the layer.
func (r *Router) routeLayer(ctx context.Context, li int, lp *layerPlan, layout *Layout, out *circuit.Circuit, sc *scorer, dist *graphs.DistanceMatrix, tab *devTables, budget int) (int, error) {
	if len(lp.twoQ) == 0 {
		return 0, nil
	}
	if budget < noSwapCap {
		// Capped trial: a gate at hop distance h needs at least h-1 SWAPs
		// (one SWAP moves an endpoint one hop), whichever distance metric
		// guides selection. If the worst pending gate alone already
		// overruns the remaining budget the trial can never finish within
		// the cap, so it would be pruned later anyway — abort before paying
		// for the layer. Guarded on finite hops: an unreachable pair is
		// trial-order-independent and must surface as trial 0's routing
		// error, not a silent prune.
		maxHop := 0.0
		for i := range lp.twoQ {
			g := &lp.twoQ[i]
			if h := tab.hop[layout.Phys(g.Q0)*tab.n+layout.Phys(g.Q1)]; h > maxHop {
				maxHop = h
			}
		}
		if !math.IsInf(maxHop, 1) && int(maxHop)-1 > budget {
			return 0, errTrialPruned
		}
	}
	// Swap-free fast path: when every pending gate already sits on a coupled
	// pair, the scorer's first emission sweep would emit them all in pending
	// order and terminate without ever scoring a swap — emit directly and
	// skip the per-layer scoring state entirely. The emitted sequence and
	// every work counter are identical to the scorer path (init evaluates
	// nothing; bestSwap never runs on such a layer).
	allAdj := true
	for i := range lp.twoQ {
		g := &lp.twoQ[i]
		if !tab.adj[layout.Phys(g.Q0)*tab.n+layout.Phys(g.Q1)] {
			allAdj = false
			break
		}
	}
	if allAdj {
		for i := range lp.twoQ {
			g := lp.twoQ[i]
			g.Q0, g.Q1 = layout.Phys(g.Q0), layout.Phys(g.Q1)
			out.Gates = append(out.Gates, g)
		}
		return 0, nil
	}
	scan := r.edgeOrder
	if scan == nil {
		scan = r.Dev.Coupling.Edges()
	}
	sc.init(tab, r.LookaheadWeight, scan, lp.twoQ, lp.next, layout)
	swaps := 0
	for {
		if err := ctx.Err(); err != nil {
			return swaps, fmt.Errorf("router: %w", err)
		}
		if swaps > budget {
			return swaps, errTrialPruned
		}
		// Emit every gate that is currently executable.
		sc.emitReady(out)
		if sc.nPend == 0 {
			return swaps, nil
		}
		if budget < noSwapCap && swaps+tab.maxHop-1 > budget {
			// Mid-layer lower bound: finishing the layer needs at least
			// maxPendingHop-1 further SWAPs (one SWAP moves any gate at most
			// one hop closer), so a capped trial already past that point is
			// doomed — abort now instead of swapping up to the cap. Pruned
			// trials are discarded whole, so the winner is unchanged. Same
			// finite-hop guard as the layer-entry check; the entry scan only
			// runs once the cap is within the coupling diameter, where the
			// bound can actually fire.
			if h := sc.maxPendingHop(); !math.IsInf(h, 1) && swaps+int(h)-1 > budget {
				return swaps, errTrialPruned
			}
		}

		if p1, p2, gain, ok := sc.bestSwap(scan); ok {
			var before []int
			if r.Trace.Enabled() {
				before = append([]int(nil), layout.L2P...)
			}
			out.Append(circuit.NewSwap(p1, p2))
			layout.SwapPhysical(p1, p2)
			sc.applySwap(p1, p2)
			swaps++
			if r.Trace.Enabled() {
				r.Trace.Swap(trace.SwapInfo{
					P1: p1, P2: p2,
					Cost:         dist.Dist(p1, p2),
					Gain:         gain,
					RoutingLayer: li,
					Before:       before,
					After:        append([]int(nil), layout.L2P...),
				})
			}
			continue
		}

		// No strictly improving swap exists: walk the closest pending gate's
		// control along its (distance-matrix) shortest path until adjacent.
		forced, err := r.forcePath(li, sc, layout, out, dist)
		swaps += forced
		if err != nil {
			return swaps, err
		}
	}
}

// forcePath routes the closest pending gate directly: the occupant of the
// control's physical qubit is swapped along the shortest path toward the
// target until the pair is coupled. Returns the number of swaps emitted, or
// a *DisconnectedError when no path exists (severed coupling graph).
func (r *Router) forcePath(li int, sc *scorer, layout *Layout, out *circuit.Circuit, dist *graphs.DistanceMatrix) (int, error) {
	r.Obs.Inc(obsv.CntRouterForcedPaths)
	best := sc.closestPending()
	src, dst := int(sc.entries[best].p0), int(sc.entries[best].p1)
	path := dist.Path(src, dst)
	if path == nil {
		return 0, &DisconnectedError{Device: r.Dev.Name, A: src, B: dst}
	}
	swaps := 0
	for i := 0; i+2 < len(path); i++ {
		var before []int
		if r.Trace.Enabled() {
			before = append([]int(nil), layout.L2P...)
		}
		out.Append(circuit.NewSwap(path[i], path[i+1]))
		layout.SwapPhysical(path[i], path[i+1])
		sc.applySwap(path[i], path[i+1])
		swaps++
		if r.Trace.Enabled() {
			r.Trace.Swap(trace.SwapInfo{
				P1: path[i], P2: path[i+1],
				Cost:         dist.Dist(path[i], path[i+1]),
				Forced:       true,
				RoutingLayer: li,
				Before:       before,
				After:        append([]int(nil), layout.L2P...),
			})
		}
	}
	return swaps, nil
}

// swapped maps physical position p through the transposition (a b).
func swapped(p, a, b int) int {
	switch p {
	case a:
		return b
	case b:
		return a
	}
	return p
}
