package router

import (
	"math"
	"slices"
	"sync"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
)

// devTables flattens the device lookups the routing hot loops hit per
// candidate evaluation — the distance matrix and the coupling adjacency —
// into contiguous 1-D arrays indexed a*n+b. They are shared read-only by
// every routing call on the same (device, distance matrix), turning the
// map-backed Connected check and the [][]float64 double indirection into
// single bounds-checked loads. The stored values are bitwise copies of the
// source matrix, so scores computed through the table are identical to
// scores computed through graphs.DistanceMatrix.Dist.
type devTables struct {
	dev    *device.Device         // the device the tables describe
	hopM   *graphs.DistanceMatrix // the device hop matrix hop was copied from
	n      int
	dist   []float64 // dist[a*n+b] = DistanceMatrix.Dist(a, b)
	hop    []float64 // hop[a*n+b] = unweighted shortest-path length a→b
	adj    []bool    // adj[a*n+b] = coupling edge (a,b) exists
	maxHop int       // largest finite hop distance (the coupling diameter)
}

// devTablesFor returns the tables of (dev, dist), memoized on dist: they
// depend only on the device and the two matrices, so IC/VIC's one routing
// call per packed layer builds them once per compile target, not once per
// call. The memo lives on the matrix rather than in a package-level map, so
// its lifetime is the device's distance cache — InvalidateCaches and
// SetCalibration drop the matrices and the tables with them, and a
// replaced device pins nothing. Reuse is checked against the device and
// its current hop matrix; a mismatch (a matrix handed to another device,
// or a device whose caches were rebuilt) builds fresh tables.
//
// dev.HopDistances is consulted exactly once per call, memo hit or not, so
// the device cache counters read as they did when every call rebuilt.
func devTablesFor(dev *device.Device, dist *graphs.DistanceMatrix) *devTables {
	hop := dev.HopDistances()
	if t, ok := dist.Derived().(*devTables); ok && t.dev == dev && t.hopM == hop {
		return t
	}
	t := buildDevTables(dev, dist, hop)
	dist.SetDerived(t)
	return t
}

func buildDevTables(dev *device.Device, dist, hop *graphs.DistanceMatrix) *devTables {
	n := dev.NQubits()
	t := &devTables{dev: dev, hopM: hop, n: n, dist: make([]float64, n*n), hop: make([]float64, n*n), adj: make([]bool, n*n)}
	for a := 0; a < n; a++ {
		copy(t.dist[a*n:(a+1)*n], dist.D[a])
		copy(t.hop[a*n:(a+1)*n], hop.D[a])
	}
	for _, h := range t.hop {
		if !math.IsInf(h, 1) && int(h) > t.maxHop {
			t.maxHop = int(h)
		}
	}
	for _, e := range dev.Coupling.Edges() {
		t.adj[e.U*n+e.V] = true
		t.adj[e.V*n+e.U] = true
	}
	return t
}

// scoreEntry is one pending or lookahead gate in a layer's scoring state:
// its current physical endpoints, the cached distance between them, and the
// flags the hot loops branch on. The fields are packed so one delta
// evaluation touches a single cache line instead of five parallel slices.
type scoreEntry struct {
	p0, p1 int32
	pend   bool
	alive  bool
	mark   int32 // applySwap dedup stamp (an entry touching both swap ends)
	dcur   float64
}

// scorer is the incremental SWAP-scoring state of one routing layer. It
// holds the pending and lookahead gates as entries with their *current*
// physical endpoints, indexed by endpoint, and keeps that state up to date
// across SWAP insertions instead of rebuilding it per candidate search:
// a SWAP on (a,b) changes the endpoints — and therefore the distances — of
// exactly the entries touching a or b, so applySwap remaps those entries
// through the transposition and swaps the two endpoint indexes, leaving
// every other entry untouched. bestSwap then scores candidates by delta
// evaluation over the endpoint index alone, memoizing per-edge scores
// between swaps.
//
// The entry order is load-bearing: touch lists are built in entry order and
// only ever swapped wholesale or compacted, so surviving entries are always
// visited in their original relative order and the floating-point
// accumulation of score deltas matches a full per-call rebuild bit for bit.
// That is what keeps the incremental router byte-identical to the
// full-recompute implementation it replaced (asserted by
// TestScorerMatchesFullRecompute).
//
// All state lives in pooled flat slices (getScorer/putScorer): after the
// first few layers warm the pool, init, bestSwap, applySwap and the
// emission scan allocate nothing.
type scorer struct {
	tab       *devTables
	lookahead float64

	// Entries: pending gates first (in pending order), then the next
	// layer's lookahead gates. gates holds the original logical gate of
	// each entry for emission.
	entries []scoreEntry
	gates   []circuit.Gate
	nPend   int // alive pending entries
	pendLen int // pending prefix length: entries[:pendLen] are the pending ones

	// touchP[p] / touchN[p] list the alive pending / lookahead entries with
	// a current endpoint on physical p (emission compacts dead entries out
	// of touchP, preserving order; lookahead entries never die). Keeping the
	// two populations separate lets scoreEdge skip the lookahead walk
	// entirely for edges whose pending term disqualifies them — the common
	// case — without perturbing either floating-point sum: the pending and
	// lookahead deltas accumulate into separate sums whose per-sum entry
	// order is unchanged by the split. activeCnt[p] counts alive *pending*
	// endpoint occurrences on p (the candidate-edge filter). stamp drives
	// the per-applySwap dedup marks.
	touchP    [][]int32
	touchN    [][]int32
	activeCnt []int
	stamp     int32

	// dirty lists the entries whose endpoints the swaps since the last
	// emission scan remapped — the only entries whose readiness can have
	// changed, and therefore the only ones emitReady needs to revisit after
	// its first full scan of the layer (scanAll).
	dirty   []int32
	scanAll bool

	// Memoized per-candidate-edge scores, indexed by the position of the
	// edge in this layer's scan order: epend/enext hold the last computed
	// pending/lookahead distance deltas and etotal the derived selection
	// total. Entry changes invalidate exactly the edges incident (per
	// incident, the scan-position index by qubit) to the changed
	// endpoints, queueing them on dirtyEdges (queued deduplicates), so
	// bestSwap recomputes only what a SWAP or an emission actually
	// perturbed before selecting. The improving edges are additionally
	// kept in a compact candidate set (candList unordered, candPos its
	// per-edge position index or -1), so selection scans the handful of
	// genuine candidates rather than every coupling edge. Every activity
	// transition of a physical qubit passes through invalidate (emission
	// and applySwap both call it), so cached candidacy is never stale; a
	// recompute runs the same entry-order loop a full scan would, so a
	// cached score is bitwise equal to a freshly computed one and the
	// winning swap is unchanged.
	//
	// No per-layer state reset is proportional to the edge count: init
	// drains the queue and the candidate set (each O(size)), bumps epoch —
	// escan stamps against it deduplicate the next rebuild — and marks the
	// layer edgesStale, so the first search scores only the edges incident
	// to an active qubit and layers needing no swap pay nothing at all.
	epend      []float64
	etotal     []float64
	candList   []int32
	candPos    []int32
	queued     []bool
	escan      []int64
	epoch      int64
	incOff     []int32 // CSR row offsets: edges incident to p are incList[incOff[p]:incOff[p+1]]
	incList    []int32
	incOther   []int32       // incOther[k] = the far endpoint of edge incList[k]
	incCur     []int32       // CSR fill cursor scratch
	incScan    []graphs.Edge // the scan the incidence index was built for
	dirtyEdges []int32       // queued invalid edges; queued[ei] ⟺ on the queue
	edgesStale bool

	// Deterministic work counters, accumulated across the layers of one
	// routing call and batched into the collector by routePlanned:
	// evals counts per-entry score-delta evaluations (router/score_evals),
	// updates counts incremental endpoint remaps (compile/dist_updates).
	evals   int64
	updates int64
}

// scorerPool recycles scorers across routing calls and layers; parallel
// trials each draw their own.
var scorerPool = sync.Pool{New: func() any { return new(scorer) }}

func getScorer() *scorer  { return scorerPool.Get().(*scorer) }
func putScorer(s *scorer) { scorerPool.Put(s) }

// init loads one layer's pending and lookahead gates under the given
// layout. Pooled backing arrays are reused; only first use (or a larger
// device/layer than ever seen) allocates.
func (s *scorer) init(tab *devTables, lookahead float64, scan []graphs.Edge, pending, next []circuit.Gate, layout *Layout) {
	s.tab = tab
	s.lookahead = lookahead
	s.entries = s.entries[:0]
	s.gates = s.gates[:0]
	s.nPend = len(pending)
	s.pendLen = len(pending)
	s.stamp = 0

	nPhys := tab.n
	if cap(s.touchP) < nPhys {
		s.touchP = make([][]int32, nPhys)
		s.touchN = make([][]int32, nPhys)
	}
	s.touchP = s.touchP[:nPhys]
	s.touchN = s.touchN[:nPhys]
	for p := range s.touchP {
		s.touchP[p] = s.touchP[p][:0]
		s.touchN[p] = s.touchN[p][:0]
	}
	if cap(s.activeCnt) < nPhys {
		s.activeCnt = make([]int, nPhys)
	}
	s.activeCnt = s.activeCnt[:nPhys]
	for p := range s.activeCnt {
		s.activeCnt[p] = 0
	}

	// Retire the previous layer's queue and candidate set by walking their
	// members (their index arrays still match the previous scan length) —
	// O(members), not O(edges).
	for _, ei := range s.dirtyEdges {
		s.queued[ei] = false
	}
	s.dirtyEdges = s.dirtyEdges[:0]
	for _, ei := range s.candList {
		s.candPos[ei] = -1
	}
	s.candList = s.candList[:0]
	nEdge := len(scan)
	prevEdge := len(s.candPos)
	if cap(s.epend) < nEdge {
		s.epend = make([]float64, nEdge)
		s.etotal = make([]float64, nEdge)
		s.queued = make([]bool, nEdge)
		s.escan = make([]int64, nEdge)
		s.candPos = make([]int32, nEdge)
		prevEdge = 0
	}
	s.epend = s.epend[:nEdge]
	s.etotal = s.etotal[:nEdge]
	s.queued = s.queued[:nEdge]
	s.escan = s.escan[:nEdge]
	s.candPos = s.candPos[:nEdge]
	// Newly exposed candPos slots (fresh allocation or growth within
	// capacity) read as zero, which is a valid set position — stamp them
	// with the not-a-member sentinel. Zero is already correct for queued
	// (not queued) and escan (stamps before any epoch).
	for i := prevEdge; i < nEdge; i++ {
		s.candPos[i] = -1
	}
	// Leftover scores from the previous layer are fine: the first bestSwap
	// of the layer rebuilds the memo under the new epoch (edgesStale), and
	// layers needing no swap never pay for the rebuild at all. epoch only
	// ever grows, so stale escan stamps — including those of a pooled
	// scorer's earlier device — can never alias the current layer.
	s.epoch++
	s.edgesStale = true
	// The incident index depends only on the scan order, which is constant
	// across the layers of one routing pass — rebuild it only when the scan
	// actually changed (a pooled scorer moving to a different trial).
	if len(s.incScan) != nEdge || (nEdge > 0 && &s.incScan[0] != &scan[0]) {
		s.incScan = scan
		if cap(s.incOff) < nPhys+1 {
			s.incOff = make([]int32, nPhys+1)
			s.incCur = make([]int32, nPhys)
		}
		s.incOff = s.incOff[:nPhys+1]
		s.incCur = s.incCur[:nPhys]
		for p := range s.incOff {
			s.incOff[p] = 0
		}
		for _, e := range scan {
			s.incOff[e.U+1]++
			s.incOff[e.V+1]++
		}
		for p := 0; p < nPhys; p++ {
			s.incOff[p+1] += s.incOff[p]
		}
		if cap(s.incList) < 2*nEdge {
			s.incList = make([]int32, 2*nEdge)
			s.incOther = make([]int32, 2*nEdge)
		}
		s.incList = s.incList[:2*nEdge]
		s.incOther = s.incOther[:2*nEdge]
		copy(s.incCur, s.incOff[:nPhys])
		for ei, e := range scan {
			s.incList[s.incCur[e.U]] = int32(ei)
			s.incOther[s.incCur[e.U]] = int32(e.V)
			s.incCur[e.U]++
			s.incList[s.incCur[e.V]] = int32(ei)
			s.incOther[s.incCur[e.V]] = int32(e.U)
			s.incCur[e.V]++
		}
	}
	s.dirty = s.dirty[:0]
	s.scanAll = true

	for _, g := range pending {
		s.addEntry(layout.Phys(g.Q0), layout.Phys(g.Q1), true, g)
	}
	if lookahead > 0 {
		for _, g := range next {
			s.addEntry(layout.Phys(g.Q0), layout.Phys(g.Q1), false, g)
		}
	}
}

func (s *scorer) addEntry(a, b int, pend bool, g circuit.Gate) {
	i := len(s.entries)
	s.entries = append(s.entries, scoreEntry{
		p0: int32(a), p1: int32(b),
		pend: pend, alive: true,
		dcur: s.tab.dist[a*s.tab.n+b],
	})
	s.gates = append(s.gates, g)
	if pend {
		s.touchP[a] = append(s.touchP[a], int32(i))
		s.touchP[b] = append(s.touchP[b], int32(i))
		s.activeCnt[a]++
		s.activeCnt[b]++
	} else {
		s.touchN[a] = append(s.touchN[a], int32(i))
		s.touchN[b] = append(s.touchN[b], int32(i))
	}
}

// emitReady appends every alive pending gate whose current endpoints are
// coupled, mapped to its physical qubits, and retires its entry. The first
// call of a layer scans the pending prefix (lookahead entries never emit);
// afterwards only the pending entries the swaps since the last call
// remapped (the dirty list) can have changed readiness — unmoved endpoints
// were already checked — so the scan shrinks to them, visited in ascending
// entry order to keep the emission order of the full sequential scan. The
// gates land on out.Gates directly: they are remaps of already-validated
// gates onto layout positions, so re-validation through Circuit.Append
// would be pure overhead on the hottest emission path. (Not annotated
// //qaoa:hotpath: the output-circuit append legitimately grows its backing
// array.)
func (s *scorer) emitReady(out *circuit.Circuit) {
	if s.scanAll {
		s.scanAll = false
		for i := 0; i < s.pendLen; i++ {
			s.emitIfReady(i, out)
		}
		return
	}
	if len(s.dirty) == 0 {
		return
	}
	slices.Sort(s.dirty)
	for _, i := range s.dirty {
		// Duplicates are harmless: a just-emitted entry is dead and skipped.
		s.emitIfReady(int(i), out)
	}
	s.dirty = s.dirty[:0]
}

// emitIfReady emits entry i if it is an alive pending gate on coupled
// endpoints, retiring it and compacting it out of the touch lists.
func (s *scorer) emitIfReady(i int, out *circuit.Circuit) {
	e := &s.entries[i]
	if !e.alive || !e.pend {
		return
	}
	a, b := int(e.p0), int(e.p1)
	if !s.tab.adj[a*s.tab.n+b] {
		return
	}
	mapped := s.gates[i]
	mapped.Q0, mapped.Q1 = a, b
	out.Gates = append(out.Gates, mapped)
	e.alive = false
	s.nPend--
	s.activeCnt[a]--
	s.activeCnt[b]--
	s.removeTouch(a, i)
	s.removeTouch(b, i)
	s.invalidate(a)
	s.invalidate(b)
}

// removeTouch compacts entry i out of touchP[p], preserving the relative
// order of the survivors (the order the delta sums accumulate in). Only
// pending entries are ever removed: emission is the only killer and it
// emits pending gates alone.
func (s *scorer) removeTouch(p, i int) {
	list := s.touchP[p]
	i32 := int32(i)
	for k, e := range list {
		if e == i32 {
			s.touchP[p] = append(list[:k], list[k+1:]...)
			return
		}
	}
}

// invalidate queues the edges incident to physical qubit p whose cached
// score can matter for recomputation; bestSwap drains the queue on its next
// call. The queued flag keeps the queue duplicate-free.
//
// An edge with no active endpoint can never *enter* the candidate set, so
// it only needs rescoring if it is currently *in* the set (to be removed).
// Skipping the rest leaves their memo stale, which is safe: a stale score
// is only ever consulted after a fresh scoreEdge, and the edge gets one
// before it can matter — every activity transition of an endpoint runs
// through invalidate again, at which point the filter passes.
//
//qaoa:hotpath
func (s *scorer) invalidate(p int) {
	ap := s.activeCnt[p] > 0
	for k := s.incOff[p]; k < s.incOff[p+1]; k++ {
		ei := s.incList[k]
		if !s.queued[ei] && (ap || s.candPos[ei] >= 0 || s.activeCnt[s.incOther[k]] > 0) {
			s.queued[ei] = true
			s.dirtyEdges = append(s.dirtyEdges, ei) //lint:allow hotpath: amortized high-water — capacity is bounded by the edge count and reached on the first pass
		}
	}
}

// bestSwap returns the swap minimizing pending distance plus the lookahead
// term plus the swap's own execution cost, requiring a strict improvement
// of the pending term so routing always terminates. Ties break by scan
// order. The call first refreshes the score memo — the edges incident to
// an active qubit on the first search of a layer, afterwards only the
// queued invalidations the state changes since the last call perturbed —
// then selects over the compact candidate set alone.
//
// Selection over the unordered candidate set picks the lowest total and,
// on equal totals, the lowest scan index — exactly the edge a sequential
// scan keeping the first strict minimum would pick, so the winner is
// independent of the set's internal order.
//
// The third return is the winning swap's pending-distance improvement
// (positive; the trace's "gain").
//
//qaoa:hotpath
func (s *scorer) bestSwap(scan []graphs.Edge) (int, int, float64, bool) {
	if s.edgesStale {
		// Fresh layer: score the edges that can matter — only an edge with
		// an active endpoint can be a candidate, so walk the active qubits'
		// incidence lists (escan stamps deduplicate shared edges). Unscored
		// edges are simply absent from the candidate set; any later
		// activation of an endpoint passes through invalidate, which queues
		// them for a real scoring. Pre-rebuild queue entries (from the
		// layer's first emission sweep) are subsumed by the rebuild.
		s.edgesStale = false
		for _, ei := range s.dirtyEdges {
			s.queued[ei] = false
		}
		s.dirtyEdges = s.dirtyEdges[:0]
		epoch := s.epoch
		escan := s.escan
		for p, cnt := range s.activeCnt {
			if cnt == 0 {
				continue
			}
			for k := s.incOff[p]; k < s.incOff[p+1]; k++ {
				ei := s.incList[k]
				if escan[ei] != epoch {
					escan[ei] = epoch
					e := scan[ei]
					s.scoreEdge(int(ei), e.U, e.V)
				}
			}
		}
	} else if len(s.dirtyEdges) > 0 {
		dirty := s.dirtyEdges
		queued := s.queued
		for _, ei := range dirty {
			queued[ei] = false
			e := scan[ei]
			s.scoreEdge(int(ei), e.U, e.V)
		}
		s.dirtyEdges = dirty[:0]
	}
	if len(s.candList) == 0 {
		return 0, 0, 0, false
	}
	etotal := s.etotal
	bi := int(s.candList[0])
	best := etotal[bi]
	for _, c := range s.candList[1:] {
		ei := int(c)
		t := etotal[ei]
		if t < best || (t == best && ei < bi) {
			best, bi = t, ei
		}
	}
	e := scan[bi]
	return e.U, e.V, -s.epend[bi], true
}

// scoreEdge recomputes the memoized score of candidate edge ei = (u, v)
// and adds or removes the edge from the candidate set accordingly.
//
// The score is the distance delta over entries touching exactly one end of
// the swap. An entry touching both ends keeps its distance (both endpoints
// stay within {u, v}), contributing an exact +0.0 the sum can skip
// bitwise-safely: deltas are never -0.0 (x−x is +0.0 in round-to-nearest),
// so no partial sum is -0.0 and adding +0.0 is the identity. The edge is a
// candidate only if the pending term strictly improves — the negated form
// of the test also rejects NaN deltas (∞−∞ on disconnected devices), which
// would otherwise loop forever; forcePath then reports the disconnection.
//
//qaoa:hotpath
func (s *scorer) scoreEdge(ei, u, v int) {
	cand := false
	if s.activeCnt[u] != 0 || s.activeCnt[v] != 0 {
		evals := s.evals
		dist, n := s.tab.dist, s.tab.n
		entries := s.entries
		// Row views of the distance matrix: an entry with partner `other`
		// on the swapped-away side lands on dist[v][other] (resp.
		// dist[u][other]). The matrix is bitwise symmetric (symmetric-weight
		// Floyd–Warshall preserves it exactly), so always indexing the
		// hoisted row is bit-identical to indexing in entry-slot order.
		distU := dist[u*n : u*n+n : u*n+n]
		distV := dist[v*n : v*n+n : v*n+n]
		pendingDelta := 0.0
		for _, i := range s.touchP[u] {
			en := &entries[i]
			other := int(en.p0) + int(en.p1) - u
			if other == v {
				continue
			}
			evals++
			pendingDelta += distV[other] - en.dcur
		}
		for _, i := range s.touchP[v] {
			en := &entries[i]
			other := int(en.p0) + int(en.p1) - v
			if other == u {
				continue
			}
			evals++
			pendingDelta += distU[other] - en.dcur
		}
		s.epend[ei] = pendingDelta
		if pendingDelta < 0 {
			// Candidate: now — and only now — pay for the lookahead term.
			total := pendingDelta + distU[v]
			if s.lookahead > 0 {
				nextDelta := 0.0
				for _, i := range s.touchN[u] {
					en := &entries[i]
					other := int(en.p0) + int(en.p1) - u
					if other == v {
						continue
					}
					evals++
					nextDelta += distV[other] - en.dcur
				}
				for _, i := range s.touchN[v] {
					en := &entries[i]
					other := int(en.p0) + int(en.p1) - v
					if other == u {
						continue
					}
					evals++
					nextDelta += distU[other] - en.dcur
				}
				total += s.lookahead * nextDelta
			}
			s.etotal[ei] = total
			cand = true
		}
		s.evals = evals
	}
	if cand {
		if s.candPos[ei] < 0 {
			s.candPos[ei] = int32(len(s.candList))
			s.candList = append(s.candList, int32(ei)) //lint:allow hotpath: amortized high-water — capacity is bounded by the edge count and reached on the first pass
		}
	} else if p := s.candPos[ei]; p >= 0 {
		last := len(s.candList) - 1
		moved := s.candList[last]
		s.candList[p] = moved
		s.candPos[moved] = p
		s.candList = s.candList[:last]
		s.candPos[ei] = -1
	}
}

// applySwap updates the scoring state for a SWAP on physical (a, b): the
// entries touching a or b are remapped through the transposition, their
// cached distances refreshed, and the endpoint indexes for a and b
// exchange; no other entry changes. This is the incremental distance
// update — O(entries touching the edge) instead of a full
// O(pending+lookahead) rebuild.
//
//qaoa:hotpath
func (s *scorer) applySwap(a, b int) {
	s.stamp++
	stamp := s.stamp
	updates := s.updates
	dist, n := s.tab.dist, s.tab.n
	a32, b32 := int32(a), int32(b)
	for li := 0; li < 4; li++ {
		var list []int32
		pend := false
		switch li {
		case 0:
			list, pend = s.touchP[a], true
		case 1:
			list = s.touchN[a]
		case 2:
			list, pend = s.touchP[b], true
		case 3:
			list = s.touchN[b]
		}
		for _, i := range list {
			en := &s.entries[i]
			if en.mark == stamp {
				continue
			}
			en.mark = stamp
			if pend {
				// Only pending entries can become ready to emit; lookahead
				// entries stay off the dirty list.
				s.dirty = append(s.dirty, i) //lint:allow hotpath: amortized high-water — capacity is bounded by the entry count and reached on the first pass
			}
			// Every edge whose score includes this entry is incident to an
			// old or new endpoint. The endpoints in {a, b} — at least one
			// old one, and every new one beyond the old pair — are
			// invalidated wholesale below, so only the carried-over
			// endpoint (if any) needs per-entry invalidation.
			if o := en.p0; o != a32 && o != b32 {
				s.invalidate(int(o))
			} else if o := en.p1; o != a32 && o != b32 {
				s.invalidate(int(o))
			}
			e0, e1 := en.p0, en.p1
			switch e0 {
			case a32:
				e0 = b32
			case b32:
				e0 = a32
			}
			switch e1 {
			case a32:
				e1 = b32
			case b32:
				e1 = a32
			}
			en.p0, en.p1 = e0, e1
			en.dcur = dist[int(e0)*n+int(e1)]
			updates++
		}
	}
	s.updates = updates
	s.touchP[a], s.touchP[b] = s.touchP[b], s.touchP[a]
	s.touchN[a], s.touchN[b] = s.touchN[b], s.touchN[a]
	s.activeCnt[a], s.activeCnt[b] = s.activeCnt[b], s.activeCnt[a]
	s.invalidate(a)
	s.invalidate(b)
}

// maxPendingHop returns the largest hop distance between the current
// endpoints of the alive pending entries (0 when none remain) — the
// per-state input of routeLayer's lower-bound pruning.
//
//qaoa:hotpath
func (s *scorer) maxPendingHop() float64 {
	hop, n := s.tab.hop, s.tab.n
	m := 0.0
	for i := 0; i < s.pendLen; i++ {
		e := &s.entries[i]
		if !e.alive {
			continue
		}
		if h := hop[int(e.p0)*n+int(e.p1)]; h > m {
			m = h
		}
	}
	return m
}

// closestPending returns the entry index of the alive pending gate with
// the smallest current endpoint distance (first minimum in entry order —
// the forced-path target selection of the reference implementation), or
// -1 when none remain.
//
//qaoa:hotpath
func (s *scorer) closestPending() int {
	best := -1
	bestD := 0.0
	for i := 0; i < s.pendLen; i++ {
		e := &s.entries[i]
		if !e.alive {
			continue
		}
		if best == -1 || e.dcur < bestD {
			best, bestD = i, e.dcur
		}
	}
	return best
}
