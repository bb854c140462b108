package compile_test

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

// TestVICAfterRecalibrationMatchesColdDevice: the router's device tables
// are memoized on the device's distance matrices, so a calibration reload
// must leave nothing of the old calibration behind. VIC on a warm device
// after SetCalibration has to compile exactly like VIC on a never-used
// device carrying the new calibration.
func TestVICAfterRecalibrationMatchesColdDevice(t *testing.T) {
	g, err := graphs.ErdosRenyiConnected(14, 0.4, rand.New(rand.NewSource(21)), 100)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	params := qaoa.Params{Gamma: []float64{0.5}, Beta: []float64{0.2}}
	vic := func(dev *device.Device) string {
		t.Helper()
		res, err := compile.Compile(prob, params, dev, compile.PresetVIC.Options(rand.New(rand.NewSource(8))))
		if err != nil {
			t.Fatal(err)
		}
		return goldenDigest(res)
	}

	// The new calibration inverts the reliability ranking of the links.
	oldCal := device.Melbourne15().Calib
	newCal := *oldCal
	newCal.CNOTError = maps.Clone(oldCal.CNOTError)
	for e, v := range newCal.CNOTError {
		newCal.CNOTError[e] = 0.12 - v
	}

	warm := device.Melbourne15()
	before := vic(warm) // builds and memoizes the old calibration's tables
	if err := warm.SetCalibration(&newCal); err != nil {
		t.Fatal(err)
	}
	cold := device.Melbourne15()
	if err := cold.SetCalibration(&newCal); err != nil {
		t.Fatal(err)
	}
	got, want := vic(warm), vic(cold)
	if got != want {
		t.Error("VIC on the recalibrated warm device differs from a cold device with the same calibration")
	}
	if before == want {
		t.Fatal("the two calibrations compile identically; the check would be vacuous")
	}
}
