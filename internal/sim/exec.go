package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/circuit"
	"repro/internal/obsv"
)

// Fault-sparse noisy trajectories. At realistic error rates most
// trajectories draw no Pauli fault at all, and the ones that do draw their
// first fault well into the circuit. The old SampleNoisy nevertheless
// re-simulated every trajectory from |0…0⟩. The Executor below draws every
// trajectory's fault sites up front (the state-vector evolution consumes no
// randomness, so plan-then-replay draws the exact same RNG stream as
// interleaved draw-and-apply):
//
//   - fault-free trajectories sample from one shared ideal final state and
//     its prebuilt CDF — zero gate applications;
//   - faulty trajectories replay only from a checkpoint at their first
//     fault site: trajectories are sorted by first-fault gate and a single
//     rolling prefix state advances monotonically through the circuit, so
//     each prefix gate is applied once per SampleNoisy call no matter how
//     many trajectories branch off it;
//   - each trajectory owns a private RNG substream derived from one draw of
//     the caller's generator (splitmix64 over the trajectory index), so
//     trajectories fan out across cores with results that are byte-identical
//     regardless of GOMAXPROCS.
//
// The substream derivation intentionally changes the RNG stream relative to
// the pre-fusion SampleNoisy (which threaded one shared *rand.Rand through
// every trajectory sequentially); BENCH_baseline.json was refreshed in the
// same change. RunNoisy still consumes the caller's stream exactly as
// before and stays draw-for-draw compatible.

// fault is one planned Pauli injection: after applying circuit gate index
// gate, apply Pauli digit d0 to q0 and (for two-qubit faults, q1 ≥ 0) d1 to
// q1. Digits are base-4: 0=I, 1=X, 2=Y, 3=Z.
type fault struct {
	gate   int
	q0, q1 int
	d0, d1 int
}

// drawFaults samples the fault plan of one trajectory, consuming rng in the
// exact per-gate order of the original interleaved implementation (per
// CNOT-equivalent for two-qubit gates; see NoiseModel).
func drawFaults(c *circuit.Circuit, nm *NoiseModel, rng *rand.Rand, buf []fault) []fault {
	buf = buf[:0]
	for gi, g := range c.Gates {
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
		case g.Arity() == 2:
			e := nm.twoQubitError(g.Q0, g.Q1)
			for i := 0; i < circuit.NativeCNOTCost(g.Kind); i++ {
				if rng.Float64() < e {
					k := 1 + rng.Intn(15)
					buf = append(buf, fault{gate: gi, q0: g.Q0, q1: g.Q1, d0: k & 3, d1: (k >> 2) & 3})
				}
			}
		default:
			if nm.OneQubit > 0 && rng.Float64() < nm.OneQubit {
				buf = append(buf, fault{gate: gi, q0: g.Q0, q1: -1, d0: rng.Intn(3) + 1})
			}
		}
	}
	return buf
}

// pauliGate maps a fault digit to its gate (ok=false for identity).
func pauliGate(q, d int) (circuit.Gate, bool) {
	switch d {
	case 1:
		return circuit.NewX(q), true
	case 2:
		return circuit.NewY(q), true
	case 3:
		return circuit.NewZ(q), true
	}
	return circuit.Gate{}, false
}

// appendFault appends the fault's Pauli digits to c as plain gates.
func appendFault(c *circuit.Circuit, f fault) {
	if g, ok := pauliGate(f.q0, f.d0); ok {
		c.Append(g)
	}
	if f.q1 >= 0 {
		if g, ok := pauliGate(f.q1, f.d1); ok {
			c.Append(g)
		}
	}
}

// faultSuffixProgram fuses the tail of c that follows the plan's first
// fault site: the first-site Pauli injections, then every remaining gate
// with its planned faults interleaved as gates. Both RunNoisy and the
// executor's trajectory replay build their suffix through this one helper,
// so the two paths produce bit-identical states from the same fault plan.
func faultSuffixProgram(c *circuit.Circuit, faults []fault) *Program {
	sc := circuit.New(c.NQubits)
	sc.Gates = make([]circuit.Gate, 0, len(c.Gates)+2*len(faults))
	fi := 0
	fg := faults[0].gate
	for fi < len(faults) && faults[fi].gate == fg {
		appendFault(sc, faults[fi])
		fi++
	}
	for gi := fg + 1; gi < len(c.Gates); gi++ {
		sc.Append(c.Gates[gi])
		for fi < len(faults) && faults[fi].gate == gi {
			appendFault(sc, faults[fi])
			fi++
		}
	}
	return Fuse(sc)
}

// substreamSeed derives the trajectory-t seed from one base draw of the
// caller's generator via splitmix64 — independent-looking streams from a
// single documented seed, stable across trajectory counts.
func substreamSeed(base, t int64) int64 {
	z := uint64(base) + (uint64(t)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// Scratch pools shared by all executors: trajectory replay states and CDF
// buffers are recycled so steady-state noisy sampling allocates only its
// output slice.
var (
	statePool sync.Pool
	cdfPool   sync.Pool
)

// getState returns a pooled state of n qubits with undefined contents —
// callers overwrite every amplitude (copy or Reset) before use.
func getState(n int) *State {
	if v := statePool.Get(); v != nil {
		if s := v.(*State); s.N == n {
			return s
		}
	}
	return NewState(n)
}

func putState(s *State) { statePool.Put(s) }

// getCDF returns a pooled float64 buffer of length n, contents undefined.
func getCDF(n int) []float64 {
	if v := cdfPool.Get(); v != nil {
		if b := *v.(*[]float64); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func putCDF(b []float64) { cdfPool.Put(&b) }

// Executor caches the fused program, the ideal final state and its sampling
// CDF for one circuit, so repeated ideal and noisy sampling of the same
// compiled circuit (the ARG measurement pattern: one noiseless run, many
// noisy trajectories) shares a single ideal execution. Not safe for
// concurrent use; the parallelism lives inside SampleNoisy.
type Executor struct {
	circ     *circuit.Circuit
	prog     *Program
	ideal    *State
	idealCDF []float64
}

// NewExecutor fuses c and returns an executor over it.
func NewExecutor(c *circuit.Circuit) *Executor {
	return &Executor{circ: c, prog: Fuse(c)}
}

// Program returns the fused execution plan.
func (e *Executor) Program() *Program { return e.prog }

// Ideal returns the shared noiseless final state, computing it on first
// use. Callers must treat it as read-only.
func (e *Executor) Ideal() *State {
	if e.ideal == nil {
		sp := Collector().StartSpan(obsv.SpanSimIdealRun)
		e.ideal = e.prog.RunOn(NewState(e.circ.NQubits))
		sp.End()
	}
	return e.ideal
}

// idealCDFBuf returns the shared CDF of the ideal state, building it on
// first use.
func (e *Executor) idealCDFBuf() []float64 {
	if e.idealCDF == nil {
		st := e.Ideal()
		e.idealCDF = make([]float64, len(st.Amp))
		buildCDF(st.Amp, e.idealCDF)
	}
	return e.idealCDF
}

// SampleIdeal draws shots noiseless samples from the cached ideal state.
func (e *Executor) SampleIdeal(rng *rand.Rand, shots int) []uint64 {
	out := make([]uint64, shots)
	sampleCDFInto(e.idealCDFBuf(), rng, out)
	return out
}

// trajPlan is one trajectory's predrawn execution plan: its private RNG
// substream (already advanced past the fault draws), its fault sites, and
// the slice of the shared output it fills.
type trajPlan struct {
	rng    *rand.Rand
	faults []fault
	out    []uint64
}

// SampleNoisy draws shots measurement outcomes from the noisy execution of
// the executor's circuit, spread over the given number of independent
// Pauli-fault trajectories, applying readout bit-flips to every sample.
// Results are deterministic in rng's state and independent of GOMAXPROCS.
func (e *Executor) SampleNoisy(nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	col := Collector()
	span := col.StartSpan(obsv.SpanSimSampleNoisy)
	defer span.End()
	if trajectories < 1 {
		trajectories = 1
	}
	if trajectories > shots {
		trajectories = shots
	}
	base := rng.Int63()
	out := make([]uint64, shots)
	nb, extra := shots/trajectories, shots%trajectories
	plans := make([]trajPlan, 0, trajectories)
	off := 0
	for t := 0; t < trajectories; t++ {
		k := nb
		if t < extra {
			k++
		}
		if k == 0 {
			continue
		}
		trng := rand.New(rand.NewSource(substreamSeed(base, int64(t))))
		plans = append(plans, trajPlan{rng: trng, faults: drawFaults(e.circ, nm, trng, nil), out: out[off : off+k]})
		off += k
	}

	var idle, faulty []*trajPlan
	for i := range plans {
		if len(plans[i].faults) == 0 {
			idle = append(idle, &plans[i])
		} else {
			faulty = append(faulty, &plans[i])
		}
	}

	if len(idle) > 0 {
		cdf := e.idealCDFBuf()
		forEachPlan(idle, func(p *trajPlan) {
			sampleCDFInto(cdf, p.rng, p.out)
			flipReadoutAll(p.out, nm, p.rng)
		})
	}

	var replayGates, replayAmpOps int64
	if len(faulty) > 0 {
		replayGates, replayAmpOps = e.replayFaulty(faulty, nm)
	}

	if col.Enabled() {
		col.Add(obsv.CntSimNoisyShots, int64(len(out)))
		col.Add(obsv.CntSimTrajectories, int64(len(plans)))
		col.Add(obsv.CntSimIdealReuses, int64(len(idle)))
		col.Add(obsv.CntSimReplays, int64(len(faulty)))
		col.Add(obsv.CntSimCheckpoints, int64(len(faulty)))
		col.Add(obsv.CntSimReplayGates, replayGates)
		col.Add(obsv.CntSimReplayAmpOps, replayAmpOps)
	}
	return out
}

// replayFaulty runs the faulty trajectories in waves of GOMAXPROCS: a
// serial phase advances the rolling prefix state to each trajectory's first
// fault site (sorted order keeps the prefix monotone) and checkpoints it
// into the worker's scratch state; the parallel phase replays each suffix,
// samples and applies readout noise. Returns the number of gate
// applications spent on prefix advancement plus suffix replay, and the
// amplitude operations they cost: state length × (prefix gates that touch
// the state + fused suffix ops) — the replay work sim/amp_ops never sees.
func (e *Executor) replayFaulty(faulty []*trajPlan, nm *NoiseModel) (replayGates, ampOps int64) {
	sort.SliceStable(faulty, func(i, j int) bool {
		return faulty[i].faults[0].gate < faulty[j].faults[0].gate
	})
	gates := e.circ.Gates
	workers := runtime.GOMAXPROCS(0)
	if workers > len(faulty) {
		workers = len(faulty)
	}
	n := e.circ.NQubits
	prefix := getState(n)
	defer putState(prefix)
	prefix.Reset()
	prefixGate := -1
	scratch := make([]*State, workers)
	cdfs := make([][]float64, workers)
	slotOps := make([]int, workers) // fused suffix ops per wave slot
	for i := range scratch {
		scratch[i] = getState(n)
		cdfs[i] = getCDF(len(prefix.Amp))
		defer putState(scratch[i])
		defer putCDF(cdfs[i])
	}
	amps := int64(len(prefix.Amp))
	for w0 := 0; w0 < len(faulty); w0 += workers {
		wave := faulty[w0:min(w0+workers, len(faulty))]
		for slot, p := range wave {
			fg := p.faults[0].gate
			for gi := prefixGate + 1; gi <= fg; gi++ {
				prefix.ApplyGate(gates[gi])
				replayGates++
				if k := gates[gi].Kind; k != circuit.Measure && k != circuit.Barrier {
					ampOps += amps
				}
			}
			prefixGate = fg
			copy(scratch[slot].Amp, prefix.Amp)
			replayGates += int64(len(gates) - 1 - fg)
		}
		if len(wave) == 1 {
			slotOps[0] = e.finishTrajectory(scratch[0], cdfs[0], wave[0], nm)
		} else {
			var wg sync.WaitGroup
			for slot, p := range wave {
				wg.Add(1)
				go func(slot int, p *trajPlan) {
					defer wg.Done()
					slotOps[slot] = e.finishTrajectory(scratch[slot], cdfs[slot], p, nm)
				}(slot, p)
			}
			wg.Wait()
		}
		for slot := range wave {
			ampOps += int64(slotOps[slot]) * amps
		}
	}
	return replayGates, ampOps
}

// finishTrajectory replays the fused fault suffix on the checkpointed state
// s, then samples the trajectory's shots and applies readout flips — all
// with the trajectory's private RNG substream. Returns the number of fused
// ops the suffix replay applied.
func (e *Executor) finishTrajectory(s *State, cdf []float64, p *trajPlan, nm *NoiseModel) int {
	prog := faultSuffixProgram(e.circ, p.faults)
	prog.apply(s)
	acc := buildCDF(s.Amp, cdf)
	for k := range p.out {
		p.out[k] = uint64(searchCDF(cdf, p.rng.Float64()*acc))
	}
	flipReadoutAll(p.out, nm, p.rng)
	return len(prog.ops)
}

// forEachPlan applies f to every plan, fanning out across cores when there
// is more than one worker available. Plans write disjoint output regions
// and own their RNGs, so the result is order-independent.
func forEachPlan(plans []*trajPlan, f func(*trajPlan)) {
	if runtime.GOMAXPROCS(0) == 1 || len(plans) == 1 {
		for _, p := range plans {
			f(p)
		}
		return
	}
	var wg sync.WaitGroup
	for _, p := range plans {
		wg.Add(1)
		go func(p *trajPlan) {
			defer wg.Done()
			f(p)
		}(p)
	}
	wg.Wait()
}

// flipReadoutAll applies per-qubit readout bit-flips to every sample.
func flipReadoutAll(samples []uint64, nm *NoiseModel, rng *rand.Rand) {
	if nm.Readout == nil {
		return
	}
	for i, x := range samples {
		samples[i] = flipReadout(x, nm.Readout, rng)
	}
}
