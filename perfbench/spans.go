package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// layers are the self-time rows of the traced run, named after the
// program's packages plus the benchmark's own rows: queue (admission wait
// inside the service), transport (HTTP client and server plumbing outside
// the handler's own time), load (the generator waiting for the next due
// request), bench (input generation and correctness checks) and
// unattributed (time inside a root span no layer span covers).
var layers = []string{
	"device", "compile", "router", "sim", "optimize", "exp",
	"serve", "queue", "transport", "load", "bench", "unattributed",
}

// span is one timed region recorded by the benchmark around a call into
// the program. Spans nest through parent; spans of one instance or request
// share id.
type span struct {
	name, layer string
	start, end  time.Duration // since the tracer's origin
	parent      int           // index of the parent span, -1 for a root
	id          string
	lane        int
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced passes pay one nil check per
// call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, id string, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, start: now, end: -1, parent: parent, id: id, lane: lane})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// child records a completed span of known duration inside parent, starting
// at offset from the parent's start and clipped to the parent. The program
// reports these durations (compile pass times, server-side request times)
// but not their instants, so the placement is laid out by the benchmark and
// the durations are measured.
func (t *tracer) child(parent int, name, layer string, offset, d time.Duration) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := min(p.start+offset, p.end)
	end := min(start+d, p.end)
	t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: parent, id: p.id, lane: p.lane})
	return len(t.spans) - 1
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time — a span's duration minus the
// part of it its children cover — and the total over root spans. Every
// instant of a root span is charged to exactly one span, so the rows sum to
// the total. Roots of concurrent load lanes overlap in time; the total
// then counts lane time, one wall per lane.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	var total time.Duration
	for i, s := range t.spans {
		if s.parent < 0 {
			total += s.end - s.start
		} else {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := make(map[string]time.Duration, len(layers))
	for i, s := range t.spans {
		rows[s.layer] += s.end - s.start - covered(t.spans, s, children[i])
	}
	return rows, total
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(spans []span, parent span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			sum += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return sum + curB - curA
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// loads: one complete ("X") event per span, lanes as threads.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating spans directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating spans file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, s := range t.spans {
		ev := event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]string{"id": s.id, "span": fmt.Sprint(i), "parent": fmt.Sprint(s.parent)},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans file: %w", err)
	}
	return f.Close()
}

// selfTimeTable renders the self-time rows; they sum to the total.
func selfTimeTable(rows map[string]time.Duration, total time.Duration) []string {
	out := []string{fmt.Sprintf("self time by layer (rows sum to %.1f ms of root-span time):", ms(total))}
	var sum time.Duration
	for _, l := range layers {
		sum += rows[l]
		out = append(out, fmt.Sprintf("  %-13s %12.3f ms %6.2f%%", l, ms(rows[l]), 100*ratio(float64(rows[l]), float64(total))))
	}
	out = append(out, fmt.Sprintf("  %-13s %12.3f ms", "sum", ms(sum)))
	return out
}
