package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
)

// memWriter is the in-memory http.ResponseWriter every workload drives the
// service through: no socket, no goroutine hand-off to a listener, so an
// op's time is the handler's time. It implements http.Flusher because the
// jobs SSE endpoint refuses writers that cannot stream.
type memWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *memWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *memWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *memWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}

func (w *memWriter) Flush() {}

// call serves one request through h in-process and returns the status and
// a copy of the body. sp, when tracing, becomes the parent of a span named
// after the request line.
func call(h http.Handler, sp *span, method, path string, body []byte) (int, []byte, error) {
	c := sp.child(method + " " + path)
	defer c.end()
	req, err := http.NewRequestWithContext(context.Background(), method, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("building %s %s: %w", method, path, err)
	}
	var w memWriter
	h.ServeHTTP(&w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.buf.Bytes(), nil
}

// post is call for the JSON POST endpoints, failing on any non-200.
func post(h http.Handler, sp *span, path string, body []byte) ([]byte, error) {
	status, out, err := call(h, sp, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return out, nil
}
