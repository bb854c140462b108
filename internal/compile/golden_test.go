package compile_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/golden_compile.txt from the current compiler")

const goldenPath = "testdata/golden_compile.txt"

// goldenCase is one seeded compilation of the byte-identity oracle.
type goldenCase struct {
	name string
	prob *qaoa.Problem
	dev  *device.Device
	opts compile.Options
}

// goldenCases crosses every preset with calibrated tokyo, calibrated
// melbourne and the uncalibrated 6x6 grid (no VIC there), over ER and
// regular graphs, with and without a packing limit. A few IC/VIC cases
// add stochastic router trials so the shared-table trial fan-out is pinned
// too.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	type graphSpec struct {
		name string
		g    *graphs.Graph
	}
	mk := func(seed int64, build func(*rand.Rand) (*graphs.Graph, error)) *graphs.Graph {
		g, err := build(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	er := func(n int, p float64) func(*rand.Rand) (*graphs.Graph, error) {
		return func(rng *rand.Rand) (*graphs.Graph, error) { return graphs.ErdosRenyiConnected(n, p, rng, 100) }
	}
	reg := func(n, d int) func(*rand.Rand) (*graphs.Graph, error) {
		return func(rng *rand.Rand) (*graphs.Graph, error) { return graphs.RandomRegular(n, d, rng) }
	}
	targets := []struct {
		dev    *device.Device
		graphs []graphSpec
	}{
		{
			dev: device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(3)), 1e-2, 0.5e-2),
			graphs: []graphSpec{
				{"er20p3", mk(1, er(20, 0.3))},
				{"er16p5", mk(2, er(16, 0.5))},
				{"reg20d3", mk(3, reg(20, 3))},
				{"reg14d6", mk(4, reg(14, 6))},
			},
		},
		{
			dev: device.Melbourne15(),
			graphs: []graphSpec{
				{"er13p5", mk(5, er(13, 0.5))},
				{"reg12d6", mk(6, reg(12, 6))},
			},
		},
		{
			dev: device.Grid(6, 6),
			graphs: []graphSpec{
				{"er26p2", mk(7, er(26, 0.2))},
				{"reg24d4", mk(8, reg(24, 4))},
			},
		},
	}
	var cases []goldenCase
	seed := int64(100)
	for _, tg := range targets {
		for _, gs := range tg.graphs {
			prob, err := qaoa.NewMaxCut(gs.g)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range compile.Presets {
				if p == compile.PresetVIC && tg.dev.Calib == nil {
					continue
				}
				for _, pack := range []int{0, 3} {
					seed++
					o := p.Options(rand.New(rand.NewSource(seed)))
					o.PackingLimit = pack
					o.Measure = true
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/%s/pack%d", tg.dev.Name, gs.name, p, pack),
						prob: prob, dev: tg.dev, opts: o,
					})
				}
				if p == compile.PresetIC || p == compile.PresetVIC {
					seed++
					o := p.Options(rand.New(rand.NewSource(seed)))
					o.RouterTrials = 4
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/%s/trials4", tg.dev.Name, gs.name, p),
						prob: prob, dev: tg.dev, opts: o,
					})
				}
			}
		}
	}
	return cases
}

// goldenDigest hashes everything a compilation promises to keep byte for
// byte: the routed circuit, its native lowering, both layouts and the SWAP
// count.
func goldenDigest(res *compile.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "circuit\n%s", res.Circuit.String())
	fmt.Fprintf(h, "native\n%s", res.Native.String())
	fmt.Fprintf(h, "initial %v %v\n", res.Initial.L2P, res.Initial.P2L)
	fmt.Fprintf(h, "final %v %v\n", res.Final.L2P, res.Final.P2L)
	fmt.Fprintf(h, "swaps %d\n", res.SwapCount)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCompileDigests is the compile path's byte-identity oracle: the
// digests in testdata/golden_compile.txt were produced by the compiler
// before its allocation work, and every later optimization must reproduce
// them exactly. Regenerate only for a deliberate output change:
//
//	go test ./internal/compile -run TestGoldenCompileDigests -golden.update
func TestGoldenCompileDigests(t *testing.T) {
	params := qaoa.Params{Gamma: []float64{0.5, 0.3}, Beta: []float64{0.2, 0.7}} // p=2: two packs of levels
	got := map[string]string{}
	var order []string
	for _, c := range goldenCases(t) {
		res, err := compile.Compile(c.prob, params, c.dev, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = goldenDigest(res)
		order = append(order, c.name)
	}
	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, compiled %d", len(want), len(got))
	}
	for _, name := range order {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
}
