package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/qasm"
)

// oracleResponse is the response document the server built before the
// full-key tier stored encoded bodies: every field of a concrete resilient
// compile of the request, started at start, with QASM only on request.
func oracleResponse(t *testing.T, s *Server, req CompileRequest, start compile.Preset, rerouted, cached bool) CompileResponse {
	t.Helper()
	p, err := s.parseRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.paramSpec.Spec(qaoa.Params{Gamma: p.gamma, Beta: p.beta})
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.CompileSpecResilient(context.Background(), spec, p.dev, start,
		compile.FallbackOptions{Seed: p.seed, PackingLimit: p.packing, Optimize: p.optimize})
	if err != nil {
		t.Fatal(err)
	}
	resp := CompileResponse{
		Status:          "ok",
		CacheKey:        p.key,
		Cached:          cached,
		Device:          p.devName,
		PresetRequested: p.preset.String(),
		PresetEffective: res.Fallback.Effective.String(),
		Degraded:        rerouted || res.Fallback.Degraded,
		Attempts:        len(res.Fallback.Attempts),
		Swaps:           res.SwapCount,
		Depth:           res.Depth,
		Gates:           res.GateCount,
		InitialLayout:   layoutSlice(res.Initial),
		FinalLayout:     layoutSlice(res.Final),
		Circuit:         res.Circuit.String(),
	}
	switch {
	case res.Fallback.Degraded && res.Fallback.Reason != "":
		resp.DegradedReason = res.Fallback.Reason
	case rerouted:
		resp.DegradedReason = fmt.Sprintf("circuit breaker open for %s; started at %s", p.preset, start)
	}
	if p.emitQASM {
		resp.QASM = qasm.Export(res.Native)
	}
	return resp
}

// oracleBody streams v through a json.Encoder into a response recorder,
// the way writeJSON wrote every success body before bodies were stored.
func oracleBody(v any) []byte {
	rec := httptest.NewRecorder()
	rec.Header().Set("Content-Type", "application/json")
	rec.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rec)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return rec.Body.Bytes()
}

// postRaw sends req and returns the status and the raw response body.
func postRaw(t *testing.T, url string, req CompileRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	return resp.StatusCode, data
}

// Every success body — fresh compile, shared flight, full-key hit,
// skeleton bind, QASM export, breaker reroute, fallback ladder — is byte
// for byte the document a concrete compile of the same request encodes to.
func TestResponseBytesMatchConcreteCompile(t *testing.T) {
	hook := compile.Hook(func(string) error { time.Sleep(5 * time.Millisecond); return nil })
	s, ts, col := newTestServer(t, Config{
		Hook:    hook,
		Breaker: BreakerConfig{MinRequests: 2, FailureRate: 0.5, Cooldown: time.Hour},
	})
	expect := func(label string, req CompileRequest, start compile.Preset, rerouted, cached bool) CompileResponse {
		t.Helper()
		st, got := postRaw(t, ts.URL, req)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, st, got)
		}
		if want := oracleBody(oracleResponse(t, s, req, start, rerouted, cached)); !bytes.Equal(got, want) {
			t.Errorf("%s: response body differs from the concrete compile\n got %s\nwant %s", label, got, want)
		}
		var resp CompileResponse
		if err := json.Unmarshal(got, &resp); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return resp
	}

	// A first compile: one leader and shared waiters, all cached:false.
	first := angleRequest("tokyo", 8, 5, "IC", []float64{0.7, 0.3}, []float64{0.35, 0.15})
	want := oracleBody(oracleResponse(t, s, first, compile.PresetIC, false, false))
	const callers = 3
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(first)
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i, got := range bodies {
		if !bytes.Equal(got, want) {
			t.Errorf("flight caller %d: response body differs from the concrete compile\n got %s\nwant %s", i, got, want)
		}
	}
	if n := col.Counter(obsv.CntServeSingleflightShared); n != callers-1 {
		t.Fatalf("singleflight shared %d, want %d", n, callers-1)
	}

	expect("full-key hit", first, compile.PresetIC, false, true)
	expect("skeleton bind", angleRequest("tokyo", 8, 5, "IC", []float64{1.1, 0.2}, []float64{0.5, 0.05}), compile.PresetIC, false, true)

	// Weighted edges with optimize and QASM: compiled, then bound, then the
	// plain twin binds and is stored, then hits.
	weighted := func(gamma float64, emit bool) CompileRequest {
		req := angleRequest("melbourne", 7, 9, "VIC", []float64{gamma}, []float64{0.3})
		req.Circuit.Weights = []float64{1.5, -0.5, 2, 0, 0.25, 3, 1e-3}
		req.Config.Optimize = true
		req.Config.EmitQASM = emit
		return req
	}
	if got := expect("weighted optimize qasm compile", weighted(0.4, true), compile.PresetVIC, false, false); got.QASM == "" {
		t.Error("emit_qasm response carries no QASM")
	}
	expect("weighted optimize qasm bind", weighted(0.9, true), compile.PresetVIC, false, true)
	expect("weighted optimize qasm repeat", weighted(0.9, true), compile.PresetVIC, false, true)
	expect("weighted optimize plain bind", weighted(0.9, false), compile.PresetVIC, false, true)
	expect("weighted optimize plain hit", weighted(0.9, false), compile.PresetVIC, false, true)

	// The fallback ladder: VIC on uncalibrated tokyo degrades to IC.
	if got := expect("ladder fallback", ringRequest("tokyo", 6, 2, "VIC"), compile.PresetVIC, false, false); !got.Degraded || got.PresetEffective != "IC" {
		t.Errorf("ladder fallback: degraded %v effective %s, want a VIC→IC fallback", got.Degraded, got.PresetEffective)
	}

	// An open VIC breaker reroutes a VIC request to start at IC.
	s.breakers.observe(nil, []compile.Attempt{{Preset: compile.PresetVIC, Err: "x"}, {Preset: compile.PresetVIC, Err: "x"}})
	if got := expect("breaker rerouted", ringRequest("melbourne", 6, 4, "VIC"), compile.PresetIC, true, false); !got.Degraded || got.DegradedReason == "" {
		t.Errorf("breaker rerouted: degraded %v reason %q, want a reroute", got.Degraded, got.DegradedReason)
	}
	expect("breaker rerouted hit", ringRequest("melbourne", 6, 4, "VIC"), compile.PresetIC, true, true)
}

// Stored bodies carry no QASM, so an emit_qasm request never reads the
// full-key tier: with its skeleton evicted it compiles again and answers
// cached:false, even though the plain outcome of the same key is still
// stored. Nothing it answers is stored.
func TestQASMRequestBypassesFullTier(t *testing.T) {
	s, ts, col := newTestServer(t, Config{CacheSize: 2})
	a, b, c := ringRequest("tokyo", 6, 1, "IC"), ringRequest("tokyo", 6, 2, "IC"), ringRequest("tokyo", 6, 3, "IC")
	for _, req := range []CompileRequest{a, b, a, c} {
		if st, _ := postRaw(t, ts.URL, req); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	// Full tier {a, c}; skeleton tier {b, c}: a's skeleton is gone.
	if s.CacheLen() != 2 || col.Counter(obsv.CntServeCompiles) != 3 {
		t.Fatalf("setup: %d cached outcomes, %d compiles", s.CacheLen(), col.Counter(obsv.CntServeCompiles))
	}

	qasmReq := a
	qasmReq.Config.EmitQASM = true
	st, got := postRaw(t, ts.URL, qasmReq)
	if st != http.StatusOK {
		t.Fatalf("qasm request: status %d", st)
	}
	if want := oracleBody(oracleResponse(t, s, qasmReq, compile.PresetIC, false, false)); !bytes.Equal(got, want) {
		t.Errorf("qasm request body differs from the concrete compile\n got %s\nwant %s", got, want)
	}
	if n := col.Counter(obsv.CntServeCompiles); n != 4 {
		t.Errorf("%d compiles, want 4: the qasm request must compile its evicted skeleton", n)
	}

	hits := col.Counter(obsv.CntServeCacheHits)
	st, got = postRaw(t, ts.URL, a)
	if st != http.StatusOK {
		t.Fatalf("plain repeat: status %d", st)
	}
	if want := oracleBody(oracleResponse(t, s, a, compile.PresetIC, false, true)); !bytes.Equal(got, want) {
		t.Errorf("plain repeat body differs from the stored response\n got %s\nwant %s", got, want)
	}
	if col.Counter(obsv.CntServeCacheHits) != hits+1 {
		t.Error("plain repeat was not a full-key hit")
	}
}
