package serve

import (
	"maps"
	"net/http"
	"runtime"
	"testing"

	"repro/internal/device"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReloadCalibrationHeapBounded: every calibration reload installs a
// fresh device whose distance matrices — and the router tables memoized on
// them — are built by the next VIC compile. Once the reload retires the
// device, all of it must become garbage. A cache that pinned retired
// devices (say, a package-level map keyed by device or matrix pointers)
// grows the live heap by every reload's tables; 200 reloads must leave it
// bounded.
func TestReloadCalibrationHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("heap-growth check skipped in -short mode")
	}
	s, ts, _ := newTestServer(t, Config{})
	base := device.Melbourne15().Calib
	cycle := func(i int) {
		cal := *base
		cal.CNOTError = maps.Clone(base.CNOTError)
		for e, v := range cal.CNOTError {
			cal.CNOTError[e] = v * (1 + 0.001*float64(i%97))
		}
		if _, _, err := s.ReloadCalibration("melbourne", &cal); err != nil {
			t.Fatal(err)
		}
		if st, _, fail := postCompile(t, ts.URL, ringRequest("melbourne", 10, int64(i), "VIC")); st != http.StatusOK {
			t.Fatalf("reload %d: compile status %d: %s", i, st, fail.Error)
		}
	}
	for i := 0; i < 20; i++ { // warm every pool, cache and buffer
		cycle(i)
	}
	before := liveHeap()
	for i := 20; i < 220; i++ {
		cycle(i)
	}
	after := liveHeap()
	growth := int64(after) - int64(before)
	t.Logf("live heap %d -> %d bytes over 200 reloads (%+d)", before, after, growth)
	// A retired melbourne device with its distance matrices and memoized
	// tables is about 15 KB, so pinning every one adds about 3 MB.
	const limit = 1 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes over 200 reloads (limit %d): retired devices are being pinned", growth, limit)
	}
}
