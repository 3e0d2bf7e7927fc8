// Package obs is the projection engine's observability layer: hierarchical
// wall-clock spans, named counters/gauges/histograms, and JSON exporters for
// both — stdlib only, with a no-op default.
//
// The design mirrors tracing in a serving stack: instrument once, assert on
// the numbers forever after. A *Scope is one span in a trace tree plus a
// handle on the trace-wide metric registry. The nil *Scope is the disabled
// layer — every method on a nil receiver returns immediately, so the
// instrumented hot paths (GA generations, pipeline fan-out, figure cells)
// cost one nil check when observability is off.
//
// Determinism contract: obs only ever records; nothing the engine computes
// reads an obs value back. Projections and figures are therefore
// byte-identical with tracing enabled or disabled, at any worker count
// (asserted by TestObsDeterminism). Counter and histogram aggregates are
// order-independent (histogram sums may differ in the last ULP across
// schedules); gauges are last-write-wins and are reserved for
// configuration-like values.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Scope is a span under construction: a name, a start/end wall time, an
// optional worker id, child spans, and the shared metric registry. Create a
// root with New, children with Child/ChildW, and close each with End.
//
// A nil *Scope is valid everywhere and does nothing.
type Scope struct {
	reg    *registry
	name   string
	worker int

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	children []*Scope
}

// New starts a root scope (and its trace-wide metric registry).
func New(name string) *Scope {
	return &Scope{reg: newRegistry(), name: name, worker: -1, start: time.Now()}
}

// Enabled reports whether the scope records anything. It is the cheap guard
// for instrumentation that must do work (e.g. read the clock) before it can
// record.
func (s *Scope) Enabled() bool { return s != nil }

// Child starts a child span. The returned scope shares the registry; close
// it with End.
func (s *Scope) Child(name string) *Scope { return s.ChildW(name, -1) }

// ChildW is Child with a worker id (the pool slot executing the span), for
// fan-out sections where utilisation matters. Use -1 for "not on a pool".
func (s *Scope) ChildW(name string, worker int) *Scope {
	if s == nil {
		return nil
	}
	c := &Scope{reg: s.reg, name: name, worker: worker, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. Later Ends are no-ops, so defer sp.End() composes
// with an explicit earlier End.
func (s *Scope) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// --- metrics ---------------------------------------------------------------

// Count adds delta to a named monotonic counter.
func (s *Scope) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.counters[name] += delta
	s.reg.mu.Unlock()
}

// Gauge sets a named last-write-wins value. Reserve gauges for
// configuration-like quantities; concurrent writers make the final value
// schedule-dependent.
func (s *Scope) Gauge(name string, v float64) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	s.reg.gauges[name] = v
	s.reg.mu.Unlock()
}

// Observe records v into a named histogram (count/sum/min/max).
func (s *Scope) Observe(name string, v float64) {
	if s == nil {
		return
	}
	s.reg.mu.Lock()
	h, ok := s.reg.hists[name]
	if !ok {
		h = &histogram{min: math.Inf(1), max: math.Inf(-1)}
		s.reg.hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	s.reg.mu.Unlock()
}

// registry is the trace-wide metric store, shared by every scope in a tree.
type registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

func newRegistry() *registry {
	return &registry{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
	}
}

// histogram is a streaming count/sum/min/max aggregate.
type histogram struct {
	count    int64
	sum, min float64
	max      float64
}

// --- snapshots -------------------------------------------------------------

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram aggregate in a snapshot.
type HistogramValue struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean is the histogram's average observation (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Metrics is a point-in-time metric snapshot, each section sorted by name.
type Metrics struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Metrics snapshots the registry. On a disabled scope it returns the zero
// snapshot.
func (s *Scope) Metrics() Metrics {
	var m Metrics
	if s == nil {
		return m
	}
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	for name, v := range s.reg.counters {
		m.Counters = append(m.Counters, CounterValue{Name: name, Value: v})
	}
	for name, v := range s.reg.gauges {
		m.Gauges = append(m.Gauges, GaugeValue{Name: name, Value: v})
	}
	for name, h := range s.reg.hists {
		m.Histograms = append(m.Histograms, HistogramValue{
			Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		})
	}
	sort.Slice(m.Counters, func(i, j int) bool { return m.Counters[i].Name < m.Counters[j].Name })
	sort.Slice(m.Gauges, func(i, j int) bool { return m.Gauges[i].Name < m.Gauges[j].Name })
	sort.Slice(m.Histograms, func(i, j int) bool { return m.Histograms[i].Name < m.Histograms[j].Name })
	return m
}

// Counter looks a counter up by name.
func (m Metrics) Counter(name string) (int64, bool) {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// WriteText renders the snapshot as aligned plain text, one metric per line.
func (m Metrics) WriteText(w io.Writer) error {
	if len(m.Counters) > 0 {
		fmt.Fprintf(w, "counters:\n")
		for _, c := range m.Counters {
			fmt.Fprintf(w, "  %-40s %12d\n", c.Name, c.Value)
		}
	}
	if len(m.Gauges) > 0 {
		fmt.Fprintf(w, "gauges:\n")
		for _, g := range m.Gauges {
			fmt.Fprintf(w, "  %-40s %12g\n", g.Name, g.Value)
		}
	}
	if len(m.Histograms) > 0 {
		fmt.Fprintf(w, "histograms:%47s %12s %12s %12s\n", "count", "mean", "min", "max")
		for _, h := range m.Histograms {
			fmt.Fprintf(w, "  %-40s %12d %12.6g %12.6g %12.6g\n",
				h.Name, h.Count, h.Mean(), h.Min, h.Max)
		}
	}
	return nil
}

// --- trace export ----------------------------------------------------------

// SpanData is one exported span: offsets are microseconds relative to the
// exported root's start, so a trace is self-contained and host-clock free.
type SpanData struct {
	Name string `json:"name"`
	// Worker is the pool slot that executed the span, -1 when the span did
	// not run on a worker pool.
	Worker  int         `json:"worker"`
	StartUS int64       `json:"start_us"`
	DurUS   int64       `json:"dur_us"`
	Spans   []*SpanData `json:"spans,omitempty"`
}

// Trace snapshots the span tree rooted at s. Spans still open are reported
// as ending at the snapshot instant (one instant for the whole export, so a
// live snapshot is internally consistent). Returns nil when disabled.
func (s *Scope) Trace() *SpanData {
	if s == nil {
		return nil
	}
	now := time.Now()
	return s.export(s.start, now)
}

// export converts the subtree, with offsets relative to epoch.
func (s *Scope) export(epoch, now time.Time) *SpanData {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	kids := append([]*Scope(nil), s.children...)
	d := &SpanData{
		Name:    s.name,
		Worker:  s.worker,
		StartUS: s.start.Sub(epoch).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
	}
	s.mu.Unlock()
	for _, c := range kids {
		d.Spans = append(d.Spans, c.export(epoch, now))
	}
	return d
}

// TraceJSON is the `-trace` file format: the span tree plus the final
// metric snapshot, in one self-describing document.
type TraceJSON struct {
	Root    *SpanData `json:"root"`
	Metrics Metrics   `json:"metrics"`
}

// WriteTrace writes the TraceJSON document (indented, stable key order).
func (s *Scope) WriteTrace(w io.Writer) error {
	if s == nil {
		return nil
	}
	doc := TraceJSON{Root: s.Trace(), Metrics: s.Metrics()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
