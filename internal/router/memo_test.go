package router

import (
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

// TestDevTablesMemoLifetime pins the memo rules of devTablesFor: tables
// are reused for the same (device, matrix), rebuilt when the device's
// caches are invalidated (a calibration reload), and never shared with a
// different device handed the same matrix.
func TestDevTablesMemoLifetime(t *testing.T) {
	dev := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(1)), 1e-2, 0.5e-2)
	rel := dev.ReliabilityDistances()
	first := devTablesFor(dev, rel)
	if again := devTablesFor(dev, rel); again != first {
		t.Fatal("second call on the same device and matrix rebuilt the tables")
	}

	cal := *dev.Calib
	cal.CNOTError = maps.Clone(dev.Calib.CNOTError)
	for e := range cal.CNOTError {
		cal.CNOTError[e] *= 3
	}
	if err := dev.SetCalibration(&cal); err != nil {
		t.Fatal(err)
	}
	rel2 := dev.ReliabilityDistances()
	if rel2 == rel {
		t.Fatal("SetCalibration kept the old reliability matrix")
	}
	fresh := devTablesFor(dev, rel2)
	if fresh == first {
		t.Fatal("tables survived the calibration reload")
	}
	n := fresh.n
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if fresh.dist[a*n+b] != rel2.Dist(a, b) {
				t.Fatalf("reloaded tables dist[%d][%d] = %v, matrix has %v", a, b, fresh.dist[a*n+b], rel2.Dist(a, b))
			}
		}
	}
	// The old matrix still answers for itself, but against the device's new
	// hop matrix its memo is stale and must not be served.
	if stale := devTablesFor(dev, rel); stale == first {
		t.Fatal("served tables built against the device's pre-reload hop matrix")
	}

	other := device.Tokyo20()
	if got := devTablesFor(other, rel2); got == fresh || got.dev != other {
		t.Fatal("tables memoized for one device were served to another")
	}
}

// TestRouteConcurrentSharedTables routes on one device and one distance
// matrix from many goroutines at once, starting from a cold memo so the
// first calls race to build and publish the tables. Every result must
// equal the sequential one; under -race this also checks the memo's
// publication and the shared read-only use of the tables.
func TestRouteConcurrentSharedTables(t *testing.T) {
	dev := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(2)), 1e-2, 0.5e-2)
	circ := randomRoutingCircuit(16, 60, rand.New(rand.NewSource(3)))
	route := func() *Result {
		r := New(dev)
		r.Dist = dev.ReliabilityDistances()
		res, err := r.Route(circ, nil)
		if err != nil {
			t.Error(err)
			return nil
		}
		return res
	}

	const workers = 8
	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = route()
		}()
	}
	wg.Wait()
	want := route()
	for w, res := range results {
		if res == nil {
			continue
		}
		if res.SwapCount != want.SwapCount || !reflect.DeepEqual(res.Circuit.Gates, want.Circuit.Gates) || !res.Final.Equal(want.Final) {
			t.Errorf("goroutine %d routed differently from the sequential call", w)
		}
	}
}

// TestRouteResultOutlivesPooledPlan: the layer plan of a routing call goes
// back to its pool when the call returns, so the Result must share no
// storage with it. Routing a second circuit reuses the pooled plan; the
// first Result has to come through unchanged.
func TestRouteResultOutlivesPooledPlan(t *testing.T) {
	dev := device.Tokyo20()
	first, err := New(dev).Route(randomRoutingCircuit(16, 60, rand.New(rand.NewSource(4))), nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]circuit.Gate(nil), first.Circuit.Gates...)
	for seed := int64(5); seed < 9; seed++ {
		if _, err := New(dev).Route(randomRoutingCircuit(16, 60, rand.New(rand.NewSource(seed))), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Circuit.Gates, snapshot) {
		t.Fatal("a later routing call overwrote an earlier Result's gates")
	}
}
