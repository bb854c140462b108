package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/serve"
)

// serve-mix load shape. The generator is open loop: request i of a phase
// at rate r is due at i/r seconds, whether or not earlier requests have
// returned. A request that found its lane still busy with an earlier
// request at its due instant is timed from that instant, so a stall counts
// against every request it delays. A request whose lane was idle is timed
// from when it was sent: the sleep until the due instant overshoots by up
// to milliseconds on coarse-timer hosts, and that lateness is the
// generator's, reported on its own as lag.
const (
	serveLimitMS    = 25.0 // p99 latency limit of a passing ladder rung
	serveRefRate    = 1000 // requests per second of the reference phase, well below the knee
	serveReloadRate = 2.0  // calibration reloads per second, at every rate
	hotSetSize      = 24   // structures in the hot working set (qaoad-load's -warm default)
	shareHit        = 74   // request mix, per 100: repeats of the hot set ...
	shareBind       = 22   // ... hot structures with fresh angles; the rest are fresh structures
	rungBase        = 1000 // rung k of the fixed ladder offers rungBase·rungGrowth^k requests per second
	rungGrowth      = 1.1
	rungCoarse      = 7 // the coarse pass visits every 7th rung (about doubling the rate)
	rungMaxK        = 49
)

// rungRate is the offered rate of ladder rung k.
func rungRate(k int) float64 { return math.Round(rungBase * math.Pow(rungGrowth, float64(k))) }

// rungDur is how long rung k runs: at least half a second and at least
// 1500 requests, so its p99 has ten or more samples beyond it.
func rungDur(k int) time.Duration {
	d := 1500 / rungRate(k)
	if d < 0.5 {
		d = 0.5
	}
	return time.Duration(d * float64(time.Second))
}

var serveDevices = []string{"tokyo", "melbourne", "falcon27", "grid6x6"}

// serveDoc is one compile request the generator can send, with what the
// benchmark needs to check its response.
type serveDoc struct {
	class  string // hit | bind | compile
	device string
	req    serve.CompileRequest
}

func (d serveDoc) body() []byte {
	b, err := json.Marshal(d.req)
	if err != nil {
		panic(err) // a CompileRequest always marshals
	}
	return b
}

// serveCell is one stratum of request structures: a device, a graph size
// and family, and a preset.
type serveCell struct {
	device, family, preset string
	n                      int
}

// serveCells are the strata, in a fixed order: every device, four sizes,
// two families, and the presets the device supports in turn (VIC only on
// calibrated melbourne).
var serveCells = func() []serveCell {
	var out []serveCell
	k := 0
	for _, dev := range serveDevices {
		presets := []string{"IC", "IP", "QAIM"}
		if dev == "melbourne" {
			presets = append(presets, "VIC")
		}
		for _, n := range []int{8, 10, 12, 14} {
			for _, fam := range []string{"3reg", "er"} {
				out = append(out, serveCell{dev, fam, presets[k%len(presets)], n})
				k++
			}
		}
	}
	return out
}()

// structure draws a request for cell: the graph's edges and the compile
// seed are random, its size, edge count and settings are the cell's.
func (c serveCell) structure(rng *rand.Rand) serve.CompileRequest {
	var g *graphs.Graph
	var err error
	if c.family == "3reg" {
		g, err = graphs.RandomRegular(c.n, 3, rng)
	} else {
		g, err = graphs.ErdosRenyiExactEdges(c.n, int(math.Round(0.35*float64(c.n*(c.n-1)/2))), rng)
	}
	if err != nil {
		panic(err) // every cell's family and size admits a graph
	}
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	return serve.CompileRequest{
		DeviceName: c.device,
		Circuit:    serve.CircuitDoc{N: c.n, Edges: edges},
		Config: serve.ConfigDoc{
			Policy: c.preset,
			Gamma:  []float64{0.8}, Beta: []float64{0.4},
			Seed: 1 + rng.Int63n(1<<30),
		},
	}
}

// serveInputs are the seed-derived inputs of serve-mix.
type serveInputs struct {
	seed int64
	hot  []serveDoc
	cals []*device.Calibration // melbourne calibrations the reloads cycle through
}

// newServeInputs draws the hot working set, hotSetSize structures from
// cells spread evenly over the strata (a third of them at self-check size),
// and the reload calibrations.
func newServeInputs(seed int64, tiny bool) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{seed: seed}
	for k := 0; k < hotSetSize; k++ {
		if tiny && k%3 != 0 {
			continue
		}
		c := serveCells[k*len(serveCells)/hotSetSize]
		in.hot = append(in.hot, serveDoc{"hit", c.device, c.structure(rng)})
	}
	for i := 0; i < 8; i++ {
		in.cals = append(in.cals, device.Melbourne15().WithRandomCalibration(rng, 1e-2, 0.5e-2).Calib)
	}
	return in
}

// doc returns request i of a phase: its class and document, a pure
// function of the seed, the phase and i. Every block of 100 consecutive
// requests holds exactly the mix's shares, in a seeded order, and the
// fresh structures cycle through the strata, so every seed sends the same
// composition.
func (in *serveInputs) doc(phase string, i int64) serveDoc {
	h := int64(0)
	for _, c := range phase {
		h = h*31 + int64(c)
	}
	base := in.seed*1_000_003 + h*7_919
	block, slot := i/100, int(i%100)
	p := rand.New(rand.NewSource(base - block - 1)).Perm(100)[slot]
	rng := rand.New(rand.NewSource(base + i))
	switch {
	case p < shareHit:
		return in.hot[rng.Intn(len(in.hot))]
	case p < shareHit+shareBind:
		d := in.hot[rng.Intn(len(in.hot))]
		d.class = "bind"
		d.req.Config.Gamma = []float64{2 * math.Pi * rng.Float64()}
		d.req.Config.Beta = []float64{math.Pi * rng.Float64()}
		return d
	default:
		k := int(block)*(100-shareHit-shareBind) + p - shareHit - shareBind
		c := serveCells[k%len(serveCells)]
		return serveDoc{"compile", c.device, c.structure(rng)}
	}
}

// directCompile compiles a request document the way a caller of the
// library would, for comparison with the service's response.
func directCompile(ctx context.Context, req serve.CompileRequest, dev *device.Device) (*compile.Result, error) {
	edges := append([][2]int(nil), req.Circuit.Edges...)
	for i, e := range edges {
		if e[0] > e[1] {
			edges[i] = [2]int{e[1], e[0]}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a][0] != edges[b][0] {
			return edges[a][0] < edges[b][0]
		}
		return edges[a][1] < edges[b][1]
	})
	g := graphs.New(req.Circuit.N)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	var preset compile.Preset
	found := false
	for _, p := range compile.Presets {
		if p.String() == req.Config.Policy {
			preset, found = p, true
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown policy %q", req.Config.Policy)
	}
	opts := preset.Options(rand.New(rand.NewSource(req.Config.Seed)))
	opts.PackingLimit = req.Config.PackingLimit
	params := qaoa.Params{Gamma: req.Config.Gamma, Beta: req.Config.Beta}
	return compile.CompileContext(ctx, &qaoa.Problem{G: g, MaxCut: 1}, params, dev, opts)
}

// sameAsDirect compares a service response with a direct compile.
func sameAsDirect(what string, resp *serve.CompileResponse, res *compile.Result) error {
	if resp.PresetEffective != resp.PresetRequested || resp.Degraded {
		return checkFailed("%s: served by %s, requested %s", what, resp.PresetEffective, resp.PresetRequested)
	}
	if resp.Circuit != res.Circuit.String() {
		return checkFailed("%s: served circuit differs from a direct compile", what)
	}
	if resp.Swaps != res.SwapCount || resp.Depth != res.Depth || resp.Gates != res.GateCount {
		return checkFailed("%s: served swaps/depth/gates %d/%d/%d, direct %d/%d/%d", what, resp.Swaps, resp.Depth, resp.Gates, res.SwapCount, res.Depth, res.GateCount)
	}
	for q, p := range resp.FinalLayout {
		if res.Final.Phys(q) != p {
			return checkFailed("%s: served final layout differs from a direct compile", what)
		}
	}
	return nil
}

// lineSink keeps the service's wide-event log lines in memory.
type lineSink struct {
	mu    sync.Mutex
	lines [][]byte
}

func (s *lineSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.lines = append(s.lines, append([]byte(nil), p...))
	s.mu.Unlock()
	return len(p), nil
}

// wideEvent is the subset of a request's wide-event log line the traced
// run reads: the server-side duration and its stages.
type wideEvent struct {
	ReqID       string  `json:"req_id"`
	DurationMS  float64 `json:"duration_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	MapMS       float64 `json:"map_ms"`
	OrderMS     float64 `json:"order_ms"`
	RouteMS     float64 `json:"route_ms"`
}

func (s *lineSink) events() map[string]wideEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]wideEvent, len(s.lines))
	for _, l := range s.lines {
		var ev wideEvent
		if json.Unmarshal(l, &ev) == nil && ev.ReqID != "" {
			out[ev.ReqID] = ev
		}
	}
	return out
}

// service is one running in-process qaoad on a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	done   chan struct{}
	client *http.Client
	tr     *http.Transport
	sink   *lineSink
}

// startService is serve-mix's set-up: build the server, bring its
// listener up, and compile the hot working set through it.
func startService(ctx context.Context, in *serveInputs, col *obsv.Collector, lanes int) (*service, []serve.CompileResponse, error) {
	s := &service{done: make(chan struct{})}
	cfg := serve.Config{Obs: col}
	if col != nil {
		s.sink = &lineSink{}
		cfg.Log = obsv.NewLogger(s.sink)
	}
	s.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("serve-mix: listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = serve.NewHTTPServer(s.srv.Handler())
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns on Shutdown
	}()
	s.srv.MarkReady()
	s.tr = &http.Transport{MaxConnsPerHost: lanes, MaxIdleConnsPerHost: lanes, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 10 * time.Second}
	warm := make([]serve.CompileResponse, len(in.hot))
	for i, d := range in.hot {
		status, body, err := s.post(ctx, d.body(), fmt.Sprintf("warm-%d", i))
		if err != nil || status != http.StatusOK {
			s.stop()
			return nil, nil, fmt.Errorf("serve-mix: warming hot structure %d: status %d: %v", i, status, err)
		}
		if err := json.Unmarshal(body, &warm[i]); err != nil {
			s.stop()
			return nil, nil, fmt.Errorf("serve-mix: decoding warm response: %w", err)
		}
	}
	return s, warm, nil
}

func (s *service) post(ctx context.Context, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop shuts the listener down, drains the service and waits for the
// serving goroutine to exit.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Drain(ctx)
	s.srv.Close()
	s.tr.CloseIdleConnections()
}

// sent is one request the generator made.
type sent struct {
	i          int64
	id, class  string
	device     string
	due        time.Duration // since phase start
	from       time.Duration // where its latency is timed from
	start, end time.Duration
	status     int
	err        bool
	body       []byte // kept for the sampled correctness check
	doc        serveDoc
	span       int
}

func (r sent) ok() bool { return !r.err && r.status == http.StatusOK }

// phaseResult summarizes one phase.
type phaseResult struct {
	rate     float64       // offered rate; 0 for a saturation phase
	dur      time.Duration // the schedule's length, or the measured wall at saturation
	reqs     []sent
	reloads  samples
	invalid  int
	backlog  [2]int // requests due but not completed at the phase's midpoint and end
	lat, lag samples
	ok       int
	failures map[string]int
}

// runPhase sends total requests from lanes sender goroutines: open loop at
// rate, or, with rate 0, each lane sending its next request as soon as its
// last returns (saturation). Before every stride-th request the lane that
// takes it installs the next melbourne calibration, so reloads run beside
// the reads at a fixed share of the traffic.
func (s *service) runPhase(ctx context.Context, in *serveInputs, name string, rate float64, total, stride int64, lanes int, tr *tracer, keep func(sent) bool) *phaseResult {
	var next atomic.Int64
	perLane := make([][]sent, lanes)
	reloads := make([]samples, lanes)
	invalid := make([]int, lanes)
	t0 := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			laneSpan := tr.begin("lane", "load", -1, fmt.Sprintf("%s-lane%d", name, l), l+1)
			defer tr.end(laneSpan)
			var laneFree time.Duration // when the lane finished its last request
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				var due time.Duration
				if rate > 0 {
					due = time.Duration(float64(i) / rate * float64(time.Second))
				}
				d := in.doc(name, i)
				body := d.body()
				if w := time.Until(t0.Add(due)); w > 0 {
					time.Sleep(w)
				}
				if i%stride == stride/2 {
					h := tr.begin("serve.reload", "serve", laneSpan, "", l+1)
					start := time.Now()
					_, n, err := s.srv.ReloadCalibration("melbourne", in.cals[int(i/stride)%len(in.cals)])
					elapsed := time.Since(start)
					tr.end(h)
					if err == nil {
						reloads[l] = append(reloads[l], ms(elapsed))
						invalid[l] += n
					}
				}
				r := sent{i: i, id: fmt.Sprintf("%s-%d", name, i), class: d.class, device: d.device, due: due}
				r.span = tr.begin("http.request", "transport", laneSpan, r.id, l+1)
				r.start = time.Since(t0)
				r.from = r.start
				if rate > 0 && laneFree > due {
					r.from = due
				}
				if rate <= 0 {
					r.due = r.start
				}
				status, resp, err := s.post(ctx, body, r.id)
				r.end = time.Since(t0)
				laneFree = r.end
				tr.end(r.span)
				r.status, r.err = status, err != nil
				if keep != nil && keep(r) && r.ok() {
					r.body, r.doc = resp, d
				}
				perLane[l] = append(perLane[l], r)
			}
		}(l)
	}
	wg.Wait()
	res := &phaseResult{rate: rate, failures: map[string]int{}}
	if rate > 0 {
		res.dur = time.Duration(float64(total) / rate * float64(time.Second))
	}
	for l := 0; l < lanes; l++ {
		res.reqs = append(res.reqs, perLane[l]...)
		res.reloads = append(res.reloads, reloads[l]...)
		res.invalid += invalid[l]
	}
	sort.Slice(res.reqs, func(a, b int) bool { return res.reqs[a].i < res.reqs[b].i })
	for _, r := range res.reqs {
		if rate <= 0 && r.end > res.dur {
			res.dur = r.end
		}
		res.lag = append(res.lag, ms(r.start-r.due))
		switch {
		case r.ok():
			res.ok++
			res.lat = append(res.lat, ms(r.end-r.from))
			continue
		case r.err:
			res.failures["transport_error"]++
		case r.status == http.StatusTooManyRequests:
			res.failures["http_429"]++
		default:
			res.failures[fmt.Sprintf("http_%d", r.status)]++
		}
		res.lat = append(res.lat, math.Inf(1))
	}
	if rate > 0 {
		for _, r := range res.reqs {
			for k, t := range []time.Duration{res.dur / 2, res.dur} {
				if r.due <= t && r.end > t {
					res.backlog[k]++
				}
			}
		}
	}
	return res
}

// passes reports whether a rung met the latency limit without a growing
// backlog. The backlog is growing when it rose from the rung's midpoint to
// its end and the requests left at the end would take longer than the
// latency limit to send at the offered rate; a short stall that leaves a
// few requests behind does not count.
func (p *phaseResult) passes() bool {
	growing := p.backlog[1] > p.backlog[0] && float64(p.backlog[1])/p.rate*1e3 > serveLimitMS
	return p.lat.quantile(0.99) <= serveLimitMS && !growing
}

func (p *phaseResult) line(name string) string {
	verdict := "pass"
	if !p.passes() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-9s rate %6.0f/s sent %5d ok %5d p50 %8.3f ms p99 %8.3f ms backlog %3d->%-4d lag p99 %7.3f ms reloads %d %s",
		name, p.rate, len(p.reqs), p.ok, p.lat.quantile(0.5), p.lat.quantile(0.99), p.backlog[0], p.backlog[1], p.lag.quantile(0.99), len(p.reloads), verdict)
}

// count adds a phase's requests, reloads and failures to the report.
func (rep *report) count(p *phaseResult) {
	rep.attempted += len(p.reqs) + len(p.reloads)
	for k, n := range p.failures {
		rep.failed += n
		rep.failures[k] += n
	}
}

// openLoop runs an open-loop phase at rate for about dur.
func (s *service) openLoop(ctx context.Context, in *serveInputs, name string, rate float64, dur time.Duration, lanes int, tr *tracer, keep func(sent) bool) *phaseResult {
	total := int64(math.Max(1, rate*dur.Seconds()))
	stride := int64(math.Max(2, math.Round(rate/serveReloadRate)))
	return s.runPhase(ctx, in, name, rate, total, stride, lanes, tr, keep)
}

// Saturation rounds: a fresh service, warmed, then serveRoundReqs requests
// from lanes callers that each send the next as soon as the last returns,
// with a reload every serveRoundStride requests. Every round is the same
// work.
const (
	serveRoundReqs   = 3000
	serveRoundStride = 1500
)

func runServeMix(ctx context.Context, rc *runCtx) (*report, error) {
	tr := rc.tr
	lanes := runtime.NumCPU()
	in := newServeInputs(rc.seed, rc.tiny)
	rep := &report{failures: map[string]int{}}
	var phases []*phaseResult
	var heap heapPeak
	roundReqs := int64(serveRoundReqs)
	if rc.tiny {
		roundReqs = 200
	}

	// Rounds until 70% of the budget is spent. Every round is the same work
	// and yields its own measured throughput and latency quantiles; the
	// metrics read those across the rounds (acrossPasses).
	var setups []time.Duration
	var stats passStats
	var svc *service
	var fresh *phaseResult
	var warm []serve.CompileResponse
	start := time.Now()
	for len(setups) == 0 || time.Since(start) < rc.budget*7/10 {
		if svc != nil {
			svc.stop()
		}
		h := tr.begin("setup", "serve", -1, fmt.Sprintf("setup-%d", len(setups)), 0)
		t0 := time.Now()
		var err error
		svc, warm, err = startService(ctx, in, rc.col, lanes)
		setups = append(setups, time.Since(t0))
		tr.end(h)
		if err != nil {
			return rep, err
		}
		rep.attempted += len(in.hot)
		// The first round keeps its fresh compiles on devices no reload
		// touches: with the hot set they are the circuits depth_mean and
		// gates_mean average.
		var keep func(sent) bool
		if len(setups) == 1 {
			keep = func(r sent) bool { return r.class == "compile" && r.device != "melbourne" }
		}
		r := svc.runPhase(ctx, in, "sat", 0, roundReqs, serveRoundStride, lanes, tr, keep)
		rep.count(r)
		if keep != nil {
			fresh = r
		}
		stats.add(r.lat, r.ok, r.dur)
		if svc.sink != nil {
			svc.attribute(nil, []*phaseResult{r}, tr) // spans only; the rows come from the reference phase
		}
		heap.sample()
	}
	defer svc.stop()
	rep.notes = append(rep.notes, fmt.Sprintf("saturation: %d rounds of %d requests from %d lanes; throughput and quantiles are per round, read across rounds at %.2f from the best; rounds measured %.0f ok/s at best, %.0f median",
		len(setups), roundReqs, lanes, passQuantile, stats.opsPerS.quantile(1), stats.opsPerS.quantile(0.5)))

	// Reference phase, open loop at a rate well below the knee, on the
	// last round's service. A seeded sample of responses from devices no
	// reload touches is kept for the correctness check.
	refDur := rc.budget / 10
	keep := func(r sent) bool { return r.device != "melbourne" && (r.i*2654435761)%61 == 0 }
	before := rc.col.Snapshot()
	ref := svc.openLoop(ctx, in, "ref", serveRefRate, refDur, lanes, tr, keep)
	after := rc.col.Snapshot()
	phases = append(phases, ref)
	rep.notes = append(rep.notes, ref.line("reference"))

	// Rate ladder: the highest rung that meets the latency limit without a
	// growing backlog. A coarse pass climbs every rungCoarse-th rung until
	// one fails; a fine pass then climbs the rungs between the last coarse
	// pass and that failure.
	var best *phaseResult
	rung := func(k int) bool {
		d := rungDur(k)
		if rc.tiny {
			d = rc.budget / 8
		}
		p := svc.openLoop(ctx, in, fmt.Sprintf("rung%d", k), rungRate(k), d, lanes, tr, nil)
		phases = append(phases, p)
		rep.notes = append(rep.notes, p.line(fmt.Sprintf("rung %d", k)))
		if p.passes() {
			best = p
			return true
		}
		return false
	}
	lastPass, failed := -1, rungMaxK+1
	for k := 0; k <= rungMaxK; k += rungCoarse {
		if !rung(k) {
			failed = k
			break
		}
		lastPass = k
		if rc.tiny {
			break
		}
	}
	for k := lastPass + 1; k < failed && k <= rungMaxK && !rc.tiny; k++ {
		if !rung(k) {
			break
		}
	}
	for _, p := range phases {
		rep.count(p)
	}

	h := tr.begin("check", "bench", -1, "check", 0)
	err := svc.checkResponses(ctx, in, ref, rc.seed)
	tr.end(h)
	if err != nil {
		return rep, err
	}

	maxRPS := 0.0
	if best != nil {
		maxRPS = best.rate
	}
	var depth, gates samples
	depthBy, swapsBy := meanBy{}, meanBy{}
	for _, w := range warm {
		depth = append(depth, float64(w.Depth))
		gates = append(gates, float64(w.Gates))
		depthBy.add(w.PresetRequested, float64(w.Depth))
		swapsBy.add(w.PresetRequested, float64(w.Swaps))
	}
	for _, r := range fresh.reqs {
		if r.body == nil {
			continue
		}
		var resp serve.CompileResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return rep, checkFailed("decoding response %s: %v", r.id, err)
		}
		depth = append(depth, float64(resp.Depth))
		gates = append(gates, float64(resp.Gates))
	}
	rep.opP50 = acrossPasses(stats.p50, false)
	rep.e2e = endToEnd(setups, &heap, &stats, depth, gates)

	v := layerValues{}
	d := delta{before, after}
	v.fillCompile(d)
	for _, p := range presetNames {
		v["compile.depth."+p] = depthBy.mean(p)
		v["compile.swaps."+p] = swapsBy.mean(p)
	}
	classLat := map[string]samples{}
	for _, r := range ref.reqs {
		l := math.Inf(1)
		if r.ok() {
			l = ms(r.end - r.from)
		}
		classLat[r.class] = append(classLat[r.class], l)
	}
	for _, c := range []string{"hit", "bind", "compile"} {
		v["serve.class_p99_ms."+c] = classLat[c].quantile(0.99)
	}
	var reloads samples
	invalidations := 0
	for _, p := range phases {
		reloads = append(reloads, p.reloads...)
		invalidations += p.invalid
	}
	v["serve.max_rps"] = maxRPS
	v["serve.reload_ms"] = reloads.mean()
	v["serve.invalidations"] = float64(ref.invalid)
	v["load.lag_p99_ms"] = ref.lag.quantile(0.99)
	v["serve.compile_flight_ms"] = d.spanMeanMS(obsv.SpanServeCompile)
	hits, misses := d.counter(obsv.CntServeCacheHits), d.counter(obsv.CntServeCacheMisses)
	v["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	sh, sm := d.counter(obsv.CntServeSkeletonHits), d.counter(obsv.CntServeSkeletonMisses)
	v["serve.skeleton_hit_ratio"] = ratio(sh, sh+sm)
	v["serve.compiles"] = d.counter(obsv.CntServeCompiles)
	v["serve.singleflight_shared"] = d.counter(obsv.CntServeSingleflightShared)
	v["serve.shed"] = d.counter(obsv.CntServeShed)
	if svc.sink != nil {
		svc.attribute(v, phases, tr)
	}
	rep.layer = v.metrics()
	rep.notes = append(rep.notes, fmt.Sprintf("%d sender lanes (nproc), one process; ladder limit %.0f ms at p99; %d reloads, %d entries invalidated",
		lanes, serveLimitMS, len(reloads), invalidations))
	return rep, nil
}

// attribute joins every traced request of phases with its wide-event log
// line: the server-side time becomes a serve span inside the client's
// request span, with the admission wait and compile passes inside it. With
// v set, the first phase's server percentiles and transport share become
// per-layer rows.
func (s *service) attribute(v layerValues, phases []*phaseResult, tr *tracer) {
	events := s.sink.events()
	var server, queue, transport samples
	for pi, p := range phases {
		for _, r := range p.reqs {
			ev, ok := events[r.id]
			if !ok || r.span < 0 {
				continue
			}
			client := r.end - r.start
			d := time.Duration(ev.DurationMS * float64(time.Millisecond))
			if d > client {
				d = client
			}
			h := tr.child(r.span, "serve.request", "serve", client-d, d)
			off := time.Duration(0)
			for _, part := range []struct {
				name, layer string
				ms          float64
			}{{"serve.queue_wait", "queue", ev.QueueWaitMS}, {"compile.map", "compile", ev.MapMS}, {"compile.order", "compile", ev.OrderMS}, {"router.route", "router", ev.RouteMS}} {
				pd := time.Duration(part.ms * float64(time.Millisecond))
				if pd <= 0 {
					continue
				}
				tr.child(h, part.name, part.layer, off, pd)
				off += pd
			}
			if pi == 0 {
				server = append(server, ev.DurationMS)
				queue = append(queue, ev.QueueWaitMS)
				transport = append(transport, ms(client)-ev.DurationMS)
			}
		}
	}
	if v == nil {
		return
	}
	v["serve.server_p50_ms"] = server.quantile(0.5)
	v["serve.server_p99_ms"] = server.quantile(0.99)
	v["serve.queue_wait_p99_ms"] = queue.quantile(0.99)
	v["serve.transport_ms"] = transport.quantile(0.5)
}

// checkResponses compares served circuits with direct compiles: the
// responses kept from the reference phase (hits, binds and fresh
// compiles on devices no reload touches), and a seeded sample of the hot
// set and of fresh documents on every device, each requested twice so the
// second answer comes from a cache tier, after pinning melbourne to a
// known calibration.
func (s *service) checkResponses(ctx context.Context, in *serveInputs, ref *phaseResult, seed int64) error {
	devs := map[string]*device.Device{
		"tokyo": device.Tokyo20(), "falcon27": device.Falcon27(), "grid6x6": device.Grid(6, 6),
		"melbourne": device.Melbourne15(),
	}
	kept := 0
	for _, r := range ref.reqs {
		if r.body == nil {
			continue
		}
		kept++
		var resp serve.CompileResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return checkFailed("decoding response %s: %v", r.id, err)
		}
		res, err := directCompile(ctx, r.doc.req, devs[r.device])
		if err != nil {
			return err
		}
		if err := sameAsDirect(fmt.Sprintf("%s (%s on %s)", r.id, r.class, r.device), &resp, res); err != nil {
			return err
		}
	}
	if kept == 0 && len(ref.reqs) > 200 {
		return checkFailed("no reference-phase response was kept for the check")
	}

	cal := in.cals[0]
	if _, _, err := s.srv.ReloadCalibration("melbourne", cal); err != nil {
		return err
	}
	if err := devs["melbourne"].SetCalibration(cal); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	var docs []serveDoc
	for i := 0; i < 3; i++ {
		docs = append(docs, in.hot[rng.Intn(len(in.hot))])
	}
	for _, d := range in.hot {
		if d.device == "melbourne" {
			docs = append(docs, d) // a structure the reload re-calibrated
			break
		}
	}
	for i := int64(0); len(docs) < 10; i++ {
		d := in.doc("check", i)
		if d.class != "hit" {
			docs = append(docs, d)
		}
	}
	for k, d := range docs {
		res, err := directCompile(ctx, d.req, devs[d.device])
		if err != nil {
			return err
		}
		for round := 0; round < 2; round++ {
			status, body, err := s.post(ctx, d.body(), fmt.Sprintf("check-%d-%d", k, round))
			if err != nil || status != http.StatusOK {
				return checkFailed("check request %d: status %d: %v", k, status, err)
			}
			var resp serve.CompileResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return checkFailed("decoding check response: %v", err)
			}
			if round == 1 && !resp.Cached {
				return checkFailed("check request %d: repeat was not served from a cache tier", k)
			}
			what := fmt.Sprintf("check %d (%s on %s, round %d)", k, d.class, d.device, round)
			if err := sameAsDirect(what, &resp, res); err != nil {
				return err
			}
		}
	}
	return nil
}
