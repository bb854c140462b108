package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obsv"
)

// TestServeAllocCeiling gates the allocations of the two request classes
// that make up almost all qaoad traffic, measured through Handler() with
// the httptest request and recorder included: a full-key hit, which writes
// the stored response, and a skeleton bind, which binds, renders and
// encodes once. They measure 60 and 79 allocations on a 12-node ring (105
// and 444 when every hit re-encoded its outcome and every bind exported
// QASM and formatted through fmt); the ceilings leave about 10%, so a
// serializer regression on the serve hot path fails go test.
func TestServeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race: sync.Pool drops items at random")
	}
	// One entry per tier: alternating two angle sets over one structure
	// evicts each bound outcome before its repeat, so every bind request
	// misses the full-key tier and binds from the skeleton tier.
	col := obsv.New()
	s := New(Config{CacheSize: 1, Obs: col})
	s.MarkReady()
	defer s.Close()
	h := s.Handler()
	body := func(gamma, beta float64) []byte {
		b, err := json.Marshal(angleRequest("tokyo", 12, 3, "IC", []float64{gamma}, []float64{beta}))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serve := func(b []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	a, b := body(0.5, 0.2), body(0.9, 0.7)
	serve(a) // compile the skeleton

	hit := testing.AllocsPerRun(50, func() { serve(a) })
	alternate := [2][]byte{b, a}
	i := 0
	bind := testing.AllocsPerRun(50, func() {
		serve(alternate[i%2])
		i++
	})
	if n := col.Counter(obsv.CntServeCompiles); n != 1 {
		t.Fatalf("%d compiles, want 1: the hit and bind loops compiled", n)
	}
	if n := col.Counter(obsv.CntServeSkeletonHits); n != 51 {
		t.Fatalf("%d skeleton hits, want 51: not every bind request bound", n)
	}
	for _, tc := range []struct {
		class   string
		got     float64
		ceiling float64
	}{
		{"hit", hit, 66},
		{"bind", bind, 87},
	} {
		t.Logf("%s: %.0f allocs/request (ceiling %.0f)", tc.class, tc.got, tc.ceiling)
		if tc.got > tc.ceiling {
			t.Errorf("%s request allocates %.0f times, ceiling %.0f", tc.class, tc.got, tc.ceiling)
		}
	}
}
