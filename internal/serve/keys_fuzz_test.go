package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fmtKeys is the fmt-based cache-key builder parseRequest's appending one
// replaced, canonicalization included: it must produce the same two keys
// for every request parseRequest accepts.
func fmtKeys(p *parsedRequest, doc CircuitDoc) (key, skelKey string) {
	type wedge struct {
		u, v int
		w    float64
	}
	canon := make([]wedge, len(doc.Edges))
	for i, e := range doc.Edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		w := 1.0
		if doc.Weights != nil && doc.Weights[i] != 0 {
			w = doc.Weights[i]
		}
		canon[i] = wedge{u, v, w}
	}
	sort.Slice(canon, func(a, b int) bool {
		if canon[a].u != canon[b].u {
			return canon[a].u < canon[b].u
		}
		if canon[a].v != canon[b].v {
			return canon[a].v < canon[b].v
		}
		return canon[a].w < canon[b].w
	})
	levels := len(p.gamma)
	h := sha256.New()
	fmt.Fprintf(h, "dev=%s\npreset=%s\nseed=%d\npacking=%d\noptimize=%t\nn=%d\np=%d\n",
		p.deviceID, p.preset, p.seed, p.packing, p.optimize, doc.N, levels)
	for l := 0; l < levels; l++ {
		fmt.Fprintf(h, "level=%d gamma=%g beta=%g\n", l, p.gamma[l], p.beta[l])
	}
	for _, e := range canon {
		fmt.Fprintf(h, "%d %d %g\n", e.u, e.v, e.w)
	}
	key = hex.EncodeToString(h.Sum(nil))
	h = sha256.New()
	fmt.Fprintf(h, "skeleton\ndev=%s\npreset=%s\nseed=%d\npacking=%d\noptimize=%t\nn=%d\np=%d\n",
		p.deviceID, p.preset, p.seed, p.packing, p.optimize, doc.N, levels)
	for _, e := range canon {
		fmt.Fprintf(h, "%d %d %g\n", e.u, e.v, e.w)
	}
	return key, hex.EncodeToString(h.Sum(nil))
}

// floats decodes b as little-endian float64s, NaN and ±Inf included.
func floats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// FuzzRequestKeys checks the canonical cache keys on random documents: n,
// an edge list (one signed byte per endpoint, so out-of-range, negative
// and self-loop edges occur), weights and per-level (gamma, beta) pairs as
// raw float64 bits, seed, packing limit and optimize. parseRequest either
// rejects the document without panicking, or its keys equal the fmt-built
// ones, survive any reordering and endpoint flipping of the edge list, and
// its skeleton key ignores the angles. The committed corpus under
// testdata/fuzz replays on every go test.
func FuzzRequestKeys(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, n int, edges, weights, angles []byte, seed int64, packing int, optimize bool, shuffle int64) {
		doc := CircuitDoc{N: n}
		for i := 0; i+1 < len(edges); i += 2 {
			doc.Edges = append(doc.Edges, [2]int{int(int8(edges[i])), int(int8(edges[i+1]))})
		}
		if len(weights) > 0 {
			doc.Weights = floats(weights)
		}
		cfg := ConfigDoc{Seed: seed, PackingLimit: packing, Optimize: optimize}
		if a := floats(angles); len(a) >= 2 {
			cfg.P = len(a) / 2
			cfg.Gamma, cfg.Beta = a[:cfg.P], a[cfg.P:2*cfg.P]
		}
		req := CompileRequest{DeviceName: "tokyo", Circuit: doc, Config: cfg}
		p, err := s.parseRequest(&req)
		if err != nil {
			return
		}
		if key, skelKey := fmtKeys(p, doc); p.key != key || p.skelKey != skelKey {
			t.Fatalf("keys (%s, %s) differ from the fmt-built (%s, %s)", p.key, p.skelKey, key, skelKey)
		}

		// Reorder the edges (weights move with them) and flip endpoints.
		rng := rand.New(rand.NewSource(shuffle))
		moved := req
		moved.Circuit.Edges = slices.Clone(doc.Edges)
		moved.Circuit.Weights = slices.Clone(doc.Weights)
		rng.Shuffle(len(doc.Edges), func(i, j int) {
			e := moved.Circuit.Edges
			e[i], e[j] = e[j], e[i]
			if w := moved.Circuit.Weights; w != nil {
				w[i], w[j] = w[j], w[i]
			}
		})
		for i, e := range moved.Circuit.Edges {
			if rng.Intn(2) == 0 {
				moved.Circuit.Edges[i] = [2]int{e[1], e[0]}
			}
		}
		q, err := s.parseRequest(&moved)
		if err != nil {
			t.Fatalf("reordered edge list rejected: %v", err)
		}
		if q.key != p.key || q.skelKey != p.skelKey {
			t.Fatal("reordering or flipping edges changed the keys")
		}

		// New angles: same structure, same skeleton key.
		turned := req
		turned.Config.P = len(p.gamma)
		turned.Config.Gamma = make([]float64, len(p.gamma))
		turned.Config.Beta = make([]float64, len(p.beta))
		for l := range p.gamma {
			turned.Config.Gamma[l] = p.gamma[l] + 0.25
			turned.Config.Beta[l] = -p.beta[l]
		}
		r, err := s.parseRequest(&turned)
		if err != nil {
			t.Fatalf("new angles rejected: %v", err)
		}
		if r.skelKey != p.skelKey {
			t.Fatal("changing the angles changed the skeleton key")
		}
	})
}
