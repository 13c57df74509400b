package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function or hook. Target names the target or unit the call
// works on, so every span of one target shares it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Target  string `json:"target,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	tr *tracer
	s  span
}

// start opens a span under parent (0 for a root span).
func (t *tracer) start(parent int64, layer, name, target string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, s: span{
		ID: t.next.Add(1), Parent: parent, Layer: layer, Name: name, Target: target,
		StartNs: time.Since(t.t0).Nanoseconds(),
	}}
}

// id is the span's identifier, for use as a child's parent (0 when
// untraced).
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and keeps it.
func (o openSpan) end() {
	if o.tr == nil {
		return
	}
	o.s.EndNs = time.Since(o.tr.t0).Nanoseconds()
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each layer's self time in ms: the duration of its spans
// minus the part of each span's interval that its child spans cover.
// Children may run concurrently (fleet workers), so their intervals are
// merged before subtracting.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := float64(s.EndNs-s.StartNs) - float64(covered(s, children[s.ID]))
		out[s.Layer] += self / 1e6
	}
	return out
}

// covered returns how many ns of parent's interval the children cover.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
