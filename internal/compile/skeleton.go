package compile

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/router"
)

// This file is the parameterized-compilation layer: a QAOA circuit's
// structure is fixed per (problem, device, preset, seed) — across the
// hundreds of optimizer evaluations and sweep points only the angles
// (γ, β) change, and every pass of the pipeline (mapping, layer
// formation, routing, stitching, decomposition) is provably
// angle-independent (see TestRoutingIsAngleIndependent). CompileSkeleton
// therefore pays the full pipeline once, recording where each rotation
// angle lands in the routed circuit, and Skeleton.Bind materializes a
// concrete Result for any angle set by writing phases into a preallocated
// gate buffer — zero routing work, near-zero allocation per evaluation.
//
// The mechanism: the angle slots live in the IR. ParamSpec.Spec tags
// every cost term with its (level, term) slot and every level's mixer
// with its level slot; the front end stamps the tag on the CPhase or RX
// it emits (circuit.Gate.Slot), the router moves whole gates, and
// Decompose carries the tag onto the U1 or U3 the rotation lowers to. So
// reading the tags of the routed high-level and native circuits recovers
// exactly which gate belongs to which slot, no matter how the ordering
// passes permuted the terms. Peephole optimization merges rotations by
// value and is the one angle-dependent pass, but it is also the last:
// CompileSkeleton routes without it, and binding an Optimize skeleton
// runs the same peephole → decompose → peephole tail (Result.lower) on
// the bound circuit that the concrete compile runs on its routed one.

// WeightedTerm is one ZZ interaction of a parameterized cost Hamiltonian:
// at bind time the level-l cost phase of the (U,V) term is −γ[l]·Weight.
// MaxCut has unit weights; weighted MaxCut (the qaoad request schema)
// scales each edge's phase by its weight.
type WeightedTerm struct {
	U, V   int
	Weight float64
}

// ParamSpec is the angle-independent half of a Spec: the interaction
// structure and per-term weights, with the 2p angles left symbolic. The
// concrete Spec for an angle set is Spec(params); CompileSkeleton compiles
// the structure once so any angle set can be bound in microseconds.
//
// ParamSpec has no per-qubit linear (RZ) terms: the concrete pipeline
// drops zero-angle locals, so a circuit's structure would depend on which
// locals vanish at a given angle set — exactly the angle-dependence the
// skeleton contract forbids. Specs with linear terms must use the
// per-angle-set CompileSpec path.
type ParamSpec struct {
	// N is the number of logical qubits.
	N int
	// P is the number of QAOA levels; every level applies the same Terms.
	P int
	// Terms are the ZZ interactions of one cost layer.
	Terms []WeightedTerm
}

// ParamSpecFromMaxCut builds the p-level parameterized spec of a MaxCut
// problem: one unit-weight term per graph edge. SpecFromMaxCut is this
// spec concretized, so a skeleton bind and the concrete compile start from
// the same terms in the same order.
func ParamSpecFromMaxCut(prob *qaoa.Problem, p int) (ParamSpec, error) {
	ps := ParamSpec{N: prob.NumQubits(), P: p, Terms: make([]WeightedTerm, 0, prob.G.M())}
	for _, e := range prob.G.Edges() {
		ps.Terms = append(ps.Terms, WeightedTerm{U: e.U, V: e.V, Weight: 1})
	}
	if err := ps.Validate(); err != nil {
		return ParamSpec{}, err
	}
	return ps, nil
}

// Validate checks qubit indices and level count.
func (ps ParamSpec) Validate() error {
	if ps.N <= 0 {
		return fmt.Errorf("compile: param spec has %d qubits", ps.N)
	}
	if ps.P <= 0 {
		return fmt.Errorf("compile: param spec has %d levels", ps.P)
	}
	for i, t := range ps.Terms {
		if t.U < 0 || t.U >= ps.N || t.V < 0 || t.V >= ps.N || t.U == t.V {
			return fmt.Errorf("compile: param spec term %d has invalid pair (%d,%d)", i, t.U, t.V)
		}
	}
	if ps.P > math.MaxInt32/(len(ps.Terms)+1) {
		return fmt.Errorf("compile: param spec needs %d×%d angle slots, beyond the int32 slot range", ps.P, len(ps.Terms)+1)
	}
	return nil
}

// Spec concretizes the parameterized spec for one angle set, with the
// exact arithmetic Bind uses (cost phase −γ[l]·Weight, mixer β[l]) so the
// per-angle-set pipeline remains a bit-identical oracle for the skeleton.
// Every term and mixer carries its angle slot: cost (l, k) is l·T+k+1 and
// mixer l is P·T+l+1, for T terms.
func (ps ParamSpec) Spec(params qaoa.Params) (Spec, error) {
	if err := ps.Validate(); err != nil {
		return Spec{}, err
	}
	if err := params.Validate(); err != nil {
		return Spec{}, err
	}
	if params.P() != ps.P {
		return Spec{}, fmt.Errorf("compile: %d-level params for a %d-level param spec", params.P(), ps.P)
	}
	T := len(ps.Terms)
	s := Spec{N: ps.N, Levels: make([]LevelSpec, ps.P)}
	for l := range s.Levels {
		terms := make([]ZZTerm, T)
		for k, t := range ps.Terms {
			terms[k] = ZZTerm{U: t.U, V: t.V, Theta: -params.Gamma[l] * t.Weight, slot: int32(l*T + k + 1)}
		}
		s.Levels[l] = LevelSpec{ZZ: terms, MixerBeta: params.Beta[l], mixerSlot: int32(ps.P*T + l + 1)}
	}
	return s, nil
}

// slotRef records that the template gate at index gate carries an angle of
// QAOA level level: the cost phase of Terms[term], or the mixer angle.
type slotRef struct{ gate, level, term int32 }

// template is one circuit of a skeleton with the gates that carry its
// cost and mixer slots.
type template struct {
	c            *circuit.Circuit
	costs, mixes []slotRef
}

// slotTemplate reads the slot tags of a compiled circuit. Every cost slot
// must occur exactly once and every mixer slot once per qubit: anything
// else means a pass dropped, duplicated or invented an angle, which would
// bind silently wrong — fail loud instead.
func (ps ParamSpec) slotTemplate(c *circuit.Circuit) (*template, error) {
	T := len(ps.Terms)
	nCost := ps.P * T
	t := &template{c: c, costs: make([]slotRef, 0, nCost), mixes: make([]slotRef, 0, ps.P*ps.N)}
	seen := make([]int, nCost+ps.P)
	for i, g := range c.Gates {
		if g.Slot == 0 {
			continue
		}
		s := int(g.Slot) - 1
		if s < 0 || s >= len(seen) {
			return nil, fmt.Errorf("gate %d: %v carries slot %d, outside the spec's %d slots", i, g.Kind, g.Slot, len(seen))
		}
		seen[s]++
		if s < nCost {
			t.costs = append(t.costs, slotRef{gate: int32(i), level: int32(s / T), term: int32(s % T)})
		} else {
			t.mixes = append(t.mixes, slotRef{gate: int32(i), level: int32(s - nCost)})
		}
	}
	for s, n := range seen {
		want := 1
		if s >= nCost {
			want = ps.N
		}
		if n != want {
			return nil, fmt.Errorf("angle slot %d occurs %d times, want %d", s+1, n, want)
		}
	}
	return t, nil
}

// bindInto copies the template into dst and overwrites its angle slots
// with the concrete angles, using exactly the arithmetic the concrete
// pipeline uses (−γ[l]·w cost phases, 2β[l] mixer rotations) so equality
// is bitwise, not just numeric.
//
//qaoa:hotpath
func (t *template) bindInto(dst *circuit.Circuit, terms []WeightedTerm, params qaoa.Params) {
	dst.NQubits = t.c.NQubits
	//lint:allow hotpath: high-water reuse — the copy grows dst once, then binds are allocation-free (BenchmarkSkeletonBindTo)
	dst.Gates = append(dst.Gates[:0], t.c.Gates...)
	for _, cs := range t.costs {
		dst.Gates[cs.gate].Params[0] = -params.Gamma[cs.level] * terms[cs.term].Weight
	}
	for _, ms := range t.mixes {
		dst.Gates[ms.gate].Params[0] = 2 * params.Beta[ms.level]
	}
}

// Skeleton is a routed, stitched QAOA circuit with symbolic angle slots:
// the one-time product of the full mapping/ordering/routing pipeline for
// a (ParamSpec, device, options) triple. Bind writes a concrete angle set
// into the slots, yielding a Result byte-identical to compiling that
// angle set from scratch. A Skeleton is immutable after construction and
// safe for concurrent Bind calls with distinct buffers.
type Skeleton struct {
	n, p  int
	terms []WeightedTerm

	// circ and native are the routed and native templates; Bind copies
	// their gates and overwrites the slots, never mutating the templates.
	// An optimize skeleton has no native template: every bind runs the
	// peephole tail on the bound circuit and lowers it afresh.
	circ, native *template
	optimize     bool

	// initial and final are shared by reference with every bound Result;
	// layouts are treated as immutable after compilation.
	initial, final *router.Layout

	swapCount, depth, gateCount                int
	compileTime, mapTime, orderTime, routeTime time.Duration

	fallback *FallbackInfo
	obs      *obsv.Collector
}

// N returns the number of logical qubits.
func (s *Skeleton) N() int { return s.n }

// P returns the number of QAOA levels an angle set must have to bind.
func (s *Skeleton) P() int { return s.p }

// Fallback reports how the degradation ladder arrived at this skeleton
// (nil for direct CompileSkeleton calls, always set by
// CompileSkeletonResilient).
func (s *Skeleton) Fallback() *FallbackInfo { return s.fallback }

// CompileSkeleton runs the full pipeline once for the parameterized spec
// and returns the reusable skeleton. opts are the usual compile options,
// Optimize included: it is recorded on the skeleton and applied at bind
// time. The routing rng is consumed exactly as a concrete compile would
// consume it, so a skeleton compiled with a given seed binds to the
// byte-identical circuit that a concrete compile with the same seed would
// produce.
func CompileSkeleton(ctx context.Context, ps ParamSpec, dev *device.Device, opts Options) (*Skeleton, error) {
	// Validate before NewParams sizes anything by an unchecked P.
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	spec, err := ps.Spec(qaoa.NewParams(ps.P))
	if err != nil {
		return nil, err
	}
	optimize := opts.Optimize
	opts.Optimize = false
	res, err := CompileSpecContext(ctx, spec, dev, opts)
	if err != nil {
		return nil, err
	}
	sk, err := newSkeleton(ps, res, optimize, opts.Obs)
	if err != nil {
		return nil, err
	}
	opts.Obs.Inc(obsv.CntSkeletonCompiles)
	return sk, nil
}

// newSkeleton reads the angle slots of the compiled circuits and freezes
// the result into a bindable skeleton.
func newSkeleton(ps ParamSpec, res *Result, optimize bool, obs *obsv.Collector) (*Skeleton, error) {
	sk := &Skeleton{
		n: ps.N, p: ps.P,
		terms:    append([]WeightedTerm(nil), ps.Terms...),
		optimize: optimize,
		initial:  res.Initial, final: res.Final,
		swapCount: res.SwapCount, depth: res.Depth, gateCount: res.GateCount,
		compileTime: res.CompileTime, mapTime: res.MapTime,
		orderTime: res.OrderTime, routeTime: res.RouteTime,
		obs: obs,
	}
	var err error
	if sk.circ, err = ps.slotTemplate(res.Circuit); err != nil {
		return nil, fmt.Errorf("compile: skeleton slots of routed circuit: %w", err)
	}
	if !optimize {
		if sk.native, err = ps.slotTemplate(res.Native); err != nil {
			return nil, fmt.Errorf("compile: skeleton slots of native circuit: %w", err)
		}
	}
	return sk, nil
}

// BindBuffer holds the reusable storage of a bind: the two materialized
// gate lists and the Result shell. A buffer reaches its high-water
// allocation on the first bind and allocates nothing afterwards; it may
// be reused across binds (each bind invalidates the previous Result) but
// not across goroutines.
type BindBuffer struct {
	circ, native circuit.Circuit
	res          Result
}

// Bind materializes the skeleton for one angle set into fresh storage.
// For per-evaluation binding use BindTo with a reused buffer.
func (s *Skeleton) Bind(params qaoa.Params) (*Result, error) {
	return s.BindTo(new(BindBuffer), params)
}

// BindTo materializes a concrete compiled circuit for params in buf and
// returns buf's Result: gate-for-gate and byte-for-byte what
// CompileSpecContext would produce for the concrete spec with the same
// options and seed, at the cost of two gate-slice copies. The Result
// shares the skeleton's layouts (immutable) and reports the skeleton's
// one-time pass timings; it is valid until buf's next bind. An Optimize
// skeleton instead lowers the bound circuit afresh, which allocates.
//
//qaoa:hotpath
func (s *Skeleton) BindTo(buf *BindBuffer, params qaoa.Params) (*Result, error) {
	//lint:allow hotpath: once-per-bind prologue outside the per-slot loops; Validate allocates only when rejecting
	if err := params.Validate(); err != nil {
		return nil, err
	}
	//lint:allow hotpath: Params.P is a len accessor
	if params.P() != s.p {
		return nil, fmt.Errorf("compile: binding %d-level params on a %d-level skeleton", params.P(), s.p) //lint:allow hotpath: guarded cold error path
	}
	s.circ.bindInto(&buf.circ, s.terms, params)
	buf.res = Result{
		Circuit: &buf.circ, Native: &buf.native,
		Initial: s.initial, Final: s.final,
		SwapCount: s.swapCount, Depth: s.depth, GateCount: s.gateCount,
		CompileTime: s.compileTime, MapTime: s.mapTime,
		OrderTime: s.orderTime, RouteTime: s.routeTime,
		Fallback: s.fallback,
	}
	if s.optimize {
		//lint:allow hotpath: Optimize skeletons only — peephole is angle-dependent, so it reruns per bind; the zero-alloc contract covers the plain bind
		buf.res.lower(true)
	} else {
		s.native.bindInto(&buf.native, s.terms, params)
	}
	s.obs.Inc(obsv.CntCompileBinds)
	return &buf.res, nil
}
