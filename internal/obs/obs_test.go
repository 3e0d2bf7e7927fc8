package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilScopeIsNoOp(t *testing.T) {
	var s *Scope
	if s.Enabled() {
		t.Fatal("nil scope must report disabled")
	}
	// Every method must be callable on the nil receiver.
	c := s.Child("x")
	if c != nil {
		t.Fatal("child of a disabled scope must stay disabled")
	}
	c.Count("n", 1)
	c.Gauge("g", 1)
	c.Observe("h", 1)
	c.End()
	if s.Trace() != nil {
		t.Fatal("disabled trace must be nil")
	}
	m := s.Metrics()
	if len(m.Counters)+len(m.Gauges)+len(m.Histograms) != 0 {
		t.Fatal("disabled metrics must be empty")
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("disabled WriteTrace must write nothing")
	}
}

func TestSpanHierarchyAndContainment(t *testing.T) {
	root := New("root")
	a := root.Child("a")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.ChildW("b", 3)
	bb := b.Child("b.inner")
	bb.End()
	b.End()
	root.End()

	tr := root.Trace()
	if tr.Name != "root" || len(tr.Spans) != 2 {
		t.Fatalf("unexpected tree: %+v", tr)
	}
	if tr.Spans[1].Worker != 3 || tr.Spans[0].Worker != -1 {
		t.Fatalf("worker ids lost: %+v", tr.Spans)
	}
	if len(tr.Spans[1].Spans) != 1 || tr.Spans[1].Spans[0].Name != "b.inner" {
		t.Fatalf("nesting lost: %+v", tr.Spans[1])
	}
	// Containment: every child interval lies within the root's, and — the
	// spans here being sequential — their durations sum to at most the
	// root's duration.
	var sum int64
	for _, c := range tr.Spans {
		if c.StartUS < tr.StartUS {
			t.Errorf("child %s starts before root", c.Name)
		}
		if c.StartUS+c.DurUS > tr.StartUS+tr.DurUS {
			t.Errorf("child %s ends after root", c.Name)
		}
		sum += c.DurUS
	}
	if sum > tr.DurUS {
		t.Errorf("sequential children sum to %dus > root %dus", sum, tr.DurUS)
	}
}

func TestEndIdempotent(t *testing.T) {
	s := New("x")
	s.End()
	d1 := s.Trace().DurUS
	time.Sleep(2 * time.Millisecond)
	s.End() // must not move the end time
	d2 := s.Trace().DurUS
	if d1 != d2 {
		t.Fatalf("second End moved the span end: %d != %d", d1, d2)
	}
}

func TestOpenSpanExportsConsistently(t *testing.T) {
	root := New("root")
	_ = root.Child("open-child") // never ended
	time.Sleep(time.Millisecond)
	tr := root.Trace() // root also still open
	c := tr.Spans[0]
	if c.DurUS <= 0 {
		t.Fatal("open child must report elapsed time")
	}
	if c.StartUS+c.DurUS > tr.StartUS+tr.DurUS {
		t.Fatal("open child must not extend past the snapshot instant")
	}
}

func TestMetricsAggregation(t *testing.T) {
	s := New("m")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Count("hits", 1)
				s.Observe("lat", 2.0)
			}
		}()
	}
	wg.Wait()
	s.Gauge("workers", 8)

	m := s.Metrics()
	if v, ok := m.Counter("hits"); !ok || v != 800 {
		t.Fatalf("counter hits = %d, want 800", v)
	}
	h, ok := m.Histogram("lat")
	if !ok || h.Count != 800 || h.Min != 2 || h.Max != 2 || h.Mean() != 2 {
		t.Fatalf("histogram lat = %+v", h)
	}
	if len(m.Gauges) != 1 || m.Gauges[0].Name != "workers" || m.Gauges[0].Value != 8 {
		t.Fatalf("gauges = %+v", m.Gauges)
	}

	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counters:", "hits", "800", "gauges:", "histograms:", "lat"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text snapshot missing %q:\n%s", want, buf.String())
		}
	}
}

func TestMetricsSortedAndStable(t *testing.T) {
	s := New("m")
	s.Count("b", 1)
	s.Count("a", 1)
	s.Count("c", 1)
	m := s.Metrics()
	if m.Counters[0].Name != "a" || m.Counters[1].Name != "b" || m.Counters[2].Name != "c" {
		t.Fatalf("counters not sorted: %+v", m.Counters)
	}
}

func TestWriteTraceJSON(t *testing.T) {
	s := New("run")
	c := s.Child("phase")
	c.Count("n", 7)
	c.End()
	s.End()
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc TraceJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Root == nil || doc.Root.Name != "run" || len(doc.Root.Spans) != 1 {
		t.Fatalf("trace tree lost: %+v", doc.Root)
	}
	if v, ok := doc.Metrics.Counter("n"); !ok || v != 7 {
		t.Fatalf("trace metrics lost: %+v", doc.Metrics)
	}
}

func TestDebugServer(t *testing.T) {
	s := New("srv")
	s.Count("reqs", 3)
	srv := httptest.NewServer(DebugHandler(s))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "reqs") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(get("/metrics.json")), &m); err != nil {
		t.Errorf("/metrics.json not JSON: %v", err)
	} else if v, _ := m.Counter("reqs"); v != 3 {
		t.Errorf("/metrics.json reqs = %d", v)
	}
	// expvar is process-global, so the scope's metrics are not republished
	// there: /debug/vars is Go's own vars, /metrics the scope's.
	if body := get("/debug/vars"); !strings.Contains(body, `"memstats"`) || strings.Contains(body, "swapp.metrics") {
		t.Errorf("/debug/vars is not Go's own vars alone:\n%.300s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if resp, err := http.Get(srv.URL + "/trace.json"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/trace.json = %d, want 404: -trace writes the span tree", resp.StatusCode)
	}
}

// Histogram looks a histogram up by name.
func (m Metrics) Histogram(name string) (HistogramValue, bool) {
	for _, h := range m.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}
