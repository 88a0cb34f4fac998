package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans and counters around the benchmark's calls into the
// program's layers. A nil *tracer records nothing, so untraced rounds pay no
// bookkeeping; traced rounds install the measuring seams that feed it.
type tracer struct {
	mu    sync.Mutex
	ms    map[string]float64 // layer time, milliseconds
	count map[string]float64 // layer work counters
	spans [][2]time.Time     // every span interval, for the covered share
}

func newTracer() *tracer {
	return &tracer{ms: map[string]float64{}, count: map[string]float64{}}
}

// span starts timing layer and returns the function that ends the span,
// adding its duration to the layer's time.
func (t *tracer) span(layer string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.record(layer, start, time.Now()) }
}

// record adds the span [start, end] to layer's time.
func (t *tracer) record(layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ms[layer] += float64(end.Sub(start)) / 1e6
	t.spans = append(t.spans, [2]time.Time{start, end})
	t.mu.Unlock()
}

// add increments counter name by v.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.count[name] += v
	t.mu.Unlock()
}

// addMs adds d to layer's time without recording a span interval, for time
// derived from the program's own counters rather than observed directly.
func (t *tracer) addMs(layer string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ms[layer] += float64(d) / 1e6
	t.mu.Unlock()
}

// covered returns the share of [from, to] that at least one span covers.
// Spans overlap when layers run concurrently, so this is the length of
// their union, not the sum of their durations.
func (t *tracer) covered(from, to time.Time) float64 {
	if t == nil || !to.After(from) {
		return 0
	}
	t.mu.Lock()
	iv := append([][2]time.Time(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var union time.Duration
	cur := from
	for _, s := range iv {
		lo, hi := s[0], s[1]
		if lo.Before(cur) {
			lo = cur
		}
		if hi.After(to) {
			hi = to
		}
		if hi.After(lo) {
			union += hi.Sub(lo)
			cur = hi
		}
	}
	return float64(union) / float64(to.Sub(from))
}
