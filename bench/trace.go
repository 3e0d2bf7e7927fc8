package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded here, in the benchmark, around the calls into each
// layer; nothing inside the program is instrumented. The driver is one
// closed-loop client, so the tracer is only ever used from one goroutine.
//
// A nil *tracer (an untraced run) hands out nil spans, and every span
// method is a no-op on nil, so the measured paths carry no tracing
// branches.
type tracer struct {
	epoch   time.Time
	spans   []*span
	nextReq int
}

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one (0 for a request's root).
type span struct {
	t       *tracer
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"request"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent, req int, name string) *span {
	s := &span{t: t, ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartUS: time.Since(t.epoch).Microseconds()}
	t.spans = append(t.spans, s)
	return s
}

// request opens the root span of a new request.
func (t *tracer) request(name string) *span {
	if t == nil {
		return nil
	}
	t.nextReq++
	return t.add(0, t.nextReq, name)
}

// count is how many spans have been recorded so far.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// child opens a span caused by s, in the same request.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.add(s.ID, s.Req, name)
}

func (s *span) end() {
	if s != nil {
		s.EndUS = time.Since(s.t.epoch).Microseconds()
	}
}

// ms is the span's duration in milliseconds.
func (s *span) ms() float64 { return float64(s.EndUS-s.StartUS) / 1e3 }

// selfUS is each span's duration minus the part its children cover, keyed
// by span ID. The driver is serial, so children never overlap each other.
func (t *tracer) selfUS() map[int]int64 {
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.EndUS - s.StartUS
		if s.Parent != 0 {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	return self
}

// spanCostSeconds measures what recording one span costs, on a scratch
// tracer: a request with one child, opened and closed, many times over.
func spanCostSeconds() float64 {
	const pairs = 50000
	t := newTracer()
	start := time.Now()
	for i := 0; i < pairs; i++ {
		r := t.request("op")
		c := r.child("call")
		c.end()
		r.end()
	}
	return time.Since(start).Seconds() / (2 * pairs)
}

// spanFile is the -trace-out document.
type spanFile struct {
	Spans []spanOut `json:"spans"`
}

type spanOut struct {
	*span
	SelfUS int64 `json:"self_us"`
}

// write dumps every span with its self time to path.
func (t *tracer) write(path string) error {
	self := t.selfUS()
	doc := spanFile{Spans: make([]spanOut, len(t.spans))}
	for i, s := range t.spans {
		doc.Spans[i] = spanOut{span: s, SelfUS: self[s.ID]}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
