package compile

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

// FuzzSkeletonBindMatchesCompile checks the skeleton contract on random
// inputs: a graph of 2–8 nodes (one edge per set bit of edges, over the
// node pairs in order), a device from {melbourne, tokyo, ring}, any
// preset, seed, p ∈ {1, 2}, Optimize setting and angles, NaN and ±Inf
// included. Either both the skeleton compile and the concrete compile
// fail, or the bound circuit is bit-identical to CompileContext with the
// same seeded options. The committed corpus under testdata/fuzz replays
// on every go test.
func FuzzSkeletonBindMatchesCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, nodes uint8, edges uint64, devSel, presetSel uint8, seed int64,
		twoLevels, optimize bool, gamma0, beta0, gamma1, beta1 float64) {
		n := 2 + int(nodes%7)
		g := graphs.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if edges>>bit&1 == 1 {
					g.MustAddEdge(u, v)
				}
				bit++
			}
		}
		prob := qaoa.NewMaxCutBounded(g, 0)
		dev := []*device.Device{device.Melbourne15(), device.Tokyo20(), device.Ring(8)}[int(devSel)%3]
		preset := Presets[int(presetSel)%len(Presets)]
		params := qaoa.Params{Gamma: []float64{gamma0}, Beta: []float64{beta0}}
		if twoLevels {
			params = qaoa.Params{Gamma: []float64{gamma0, gamma1}, Beta: []float64{beta0, beta1}}
		}
		options := func() Options {
			o := preset.Options(rand.New(rand.NewSource(seed)))
			o.Optimize = optimize
			return o
		}

		ctx := context.Background()
		oracle, oracleErr := CompileContext(ctx, prob, params, dev, options())
		ps, err := ParamSpecFromMaxCut(prob, params.P())
		if err != nil {
			t.Fatalf("param spec: %v", err)
		}
		sk, skelErr := CompileSkeleton(ctx, ps, dev, options())
		if (oracleErr != nil) != (skelErr != nil) {
			t.Fatalf("%s/%v: compile error %v, skeleton error %v", dev.Name, preset, oracleErr, skelErr)
		}
		if oracleErr != nil {
			return
		}
		bound, err := sk.Bind(params)
		if err != nil {
			t.Fatalf("%s/%v: bind: %v", dev.Name, preset, err)
		}
		requireSameResult(t, dev.Name+"/"+preset.String(), bound, oracle)
		if bound.Fallback != nil {
			t.Fatalf("direct skeleton bound with fallback info %+v", bound.Fallback)
		}
	})
}
