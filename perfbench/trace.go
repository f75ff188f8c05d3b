package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// operation (a figure point, a simloop run, a fuzz seed, a model-checked
// program) share Op; Parent is the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is then a single nil check.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	nextOp atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	return int(t.nextOp.Add(1))
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// stop closes span id.
func (t *tracer) stop(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layers lists the layers self time is attributed to, in report order.
// Spans outside every layer (the benchmark's own pass spans) fall into
// the unattributed share.
var layers = []string{
	"workload.Generate",
	"sim.New",
	"sim.Run",
	"experiments",
	"check.Generate",
	"check.EnumerateStats",
	"check.CheckProg",
	"check.ModelCheck",
}

// layerOf maps a span name to its layer, or "" for harness spans.
func layerOf(name string) string {
	if strings.HasPrefix(name, "experiments.") {
		return "experiments"
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return ""
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of it that its children cover, summed per layer.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		l := layerOf(s.Name)
		if l == "" {
			continue
		}
		out[l] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered returns how much of s the union of its children's intervals
// covers; children may overlap when they run on parallel workers.
func covered(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return sum
}

// selfShares turns per-layer self times into percentages of lanes × wall
// (lanes = threads the workload keeps busy), rounded down to 0.1, with an
// explicit "unattributed" remainder so the shares sum to exactly 100.0.
func selfShares(self map[string]time.Duration, wall time.Duration, lanes int) map[string]float64 {
	out := make(map[string]float64, len(layers)+1)
	total := float64(wall) * float64(lanes)
	rest := 1000
	for _, l := range layers {
		tenths := 0
		if total > 0 {
			tenths = int(float64(self[l]) / total * 1000)
		}
		rest -= tenths
		out[l] = float64(tenths) / 10
	}
	out["unattributed"] = float64(rest) / 10
	return out
}
