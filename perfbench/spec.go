package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark checks its own output
// against: the metric names and units of each kind.
type spec struct {
	endToEnd map[string]string // name → unit
	perLayer map[string]string
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var doc struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	s := &spec{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		s.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		s.perLayer[m.Name] = m.Unit
	}
	return s, nil
}

var nameAlphabet = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check asserts that metrics are exactly the spec's end-to-end (or
// per-layer) set, each name in the allowed alphabet, each with the unit
// the spec gives it, each emitted once.
func (s *spec) check(metrics []metric, traced bool) error {
	want := s.endToEnd
	if traced {
		want = s.perLayer
	}
	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if !nameAlphabet.MatchString(m.name) {
			return fmt.Errorf("metric name %q outside the [A-Za-z0-9_.-] alphabet", m.name)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %q emitted twice", m.name)
		}
		seen[m.name] = true
		unit, ok := want[m.name]
		if !ok {
			return fmt.Errorf("metric %q is not listed in BENCHMARK.json", m.name)
		}
		if m.unit == "" || m.unit != unit {
			return fmt.Errorf("metric %q carries unit %q, BENCHMARK.json says %q", m.name, m.unit, unit)
		}
	}
	for name := range want {
		if !seen[name] {
			return fmt.Errorf("metric %q of BENCHMARK.json was not emitted", name)
		}
	}
	return nil
}

// selfCheck runs every workload once at tiny size, untraced and traced,
// and checks the emitted metrics against the spec.
func selfCheck(s *spec) int {
	bad := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			metrics, _, err := measure(context.Background(), w, 1, 2*time.Second, traced, true)
			if err == nil {
				err = s.check(metrics, traced)
			}
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
				bad++
			}
			fmt.Printf("selfcheck %-14s trace=%v %3d metrics %6.2fs %s\n", w.name, traced, len(metrics), time.Since(start).Seconds(), status)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
