package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/report"
)

// Client is a resilient caller of the swappd API: it retries transient
// failures (network errors and 429/502/503/504 responses) with capped
// exponential backoff plus jitter, honouring the server's Retry-After
// hint when one is sent — the hint is exactly what the overload and
// circuit-breaker paths use to pace clients. The zero value plus a
// BaseURL is usable.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient; the
	// peer-forwarding layer sets one with a short dial timeout).
	HTTP *http.Client
	// MaxRetries bounds the retries after the first attempt (default 3,
	// so up to 4 attempts; negative disables retrying).
	MaxRetries int
	// BaseBackoff seeds the exponential backoff (default 100ms) and
	// MaxBackoff caps it (default 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter perturbs a computed backoff (default equal jitter:
	// half deterministic, half uniform). Injectable for tests.
	Jitter func(d time.Duration) time.Duration
	// Sleep waits between attempts (default a context-aware sleep).
	// Injectable for tests.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the clock used to convert an HTTP-date Retry-After into a
	// delay (default time.Now). Injectable for tests.
	Now func() time.Time
	// breaker, when non-nil, short-circuits calls to a destination that
	// keeps failing: while open, Do-style methods fail fast with a
	// breakerOpenError instead of attempting the network at all, until the
	// cooldown lets a probe through. The peer-forwarding layer arms one
	// per peer so a dead replica is walked past without paying connect
	// timeouts on every request.
	breaker *breaker
}

// APIError is a non-retryable (or retries-exhausted) HTTP error response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Message)
}

// Project calls /v1/project and decodes the projection.
func (c *Client) Project(ctx context.Context, req APIRequest) (*report.ProjectionJSON, error) {
	return c.eval(ctx, "/v1/project", req)
}

// Validate calls /v1/validate and decodes the projection with its
// validation section.
func (c *Client) Validate(ctx context.Context, req APIRequest) (*report.ProjectionJSON, error) {
	return c.eval(ctx, "/v1/validate", req)
}

func (c *Client) eval(ctx context.Context, path string, req APIRequest) (*report.ProjectionJSON, error) {
	body, err := c.do(ctx, path, req)
	if err != nil {
		return nil, err
	}
	var out report.ProjectionJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("server: decoding %s response: %w", path, err)
	}
	return &out, nil
}

// do runs the retry loop for one JSON POST.
func (c *Client) do(ctx context.Context, path string, req APIRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	body, _, err := c.PostRaw(ctx, path, payload, nil)
	return body, err
}

// PostRaw POSTs a pre-marshalled JSON payload and returns the successful
// response's body and headers verbatim — the forwarding primitive: a
// replica relaying a request to a peer must pass the peer's rendered bytes
// through untouched to preserve byte-identity. header entries (e.g. the
// forwarded-loop guard) are copied onto every attempt. The same retry,
// backoff, Retry-After, and breaker machinery as the typed calls applies.
func (c *Client) PostRaw(ctx context.Context, path string, payload []byte, header http.Header) ([]byte, http.Header, error) {
	if c.breaker != nil {
		if ra, ok := c.breaker.allow(); !ok {
			return nil, nil, &breakerOpenError{retryAfter: ra}
		}
	}
	body, hdr, err := c.postRawAttempts(ctx, path, payload, header)
	switch {
	case err == nil:
		c.breaker.record(nil)
	case ctx.Err() != nil:
		// The caller's own cancellation or deadline is no verdict on the
		// destination.
		c.breaker.record(ctx.Err())
	default:
		c.breaker.record(errDestination)
	}
	return body, hdr, err
}

// errDestination is what the breaker is told of any call that failed while
// its caller was still waiting. The error itself cannot be trusted to say
// so: a connect that timed out satisfies errors.Is(err,
// context.DeadlineExceeded) — net's timeout errors answer to it — which the
// breaker's own rules read as the caller's deadline, so a destination that
// drops packets would never open its breaker.
var errDestination = errors.New("server: call failed at its destination")

// postRawAttempts is the raw retry loop, without breaker accounting.
func (c *Client) postRawAttempts(ctx context.Context, path string, payload []byte, header http.Header) ([]byte, http.Header, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return nil, nil, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		for k, vs := range header {
			for _, v := range vs {
				hreq.Header.Add(k, v)
			}
		}

		// retryAfter is THIS attempt's server hint only. It must reset every
		// iteration: a hint carried over from an earlier 503 would inflate
		// every later wait even after the server stopped asking for it.
		var retryAfter time.Duration
		resp, err := httpc.Do(hreq)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = err
		default:
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				lastErr = rerr
				break
			}
			// Any 2xx is success: /v1/jobs answers 202 Accepted.
			if resp.StatusCode >= 200 && resp.StatusCode < 300 {
				return body, resp.Header, nil
			}
			apiErr := &APIError{Status: resp.StatusCode, Message: errorMessage(body)}
			if !retryableStatus(resp.StatusCode) {
				return nil, nil, apiErr
			}
			lastErr = apiErr
			retryAfter = c.retryAfterHint(resp.Header.Get("Retry-After"))
		}
		if attempt >= retries {
			return nil, nil, lastErr
		}
		wait := c.backoff(attempt)
		if retryAfter > wait {
			wait = retryAfter
		}
		if err := sleep(ctx, wait); err != nil {
			return nil, nil, err
		}
	}
}

// retryAfterHint parses a Retry-After header value into a delay. RFC 9110
// §10.2.3 allows two forms: delay-seconds ("120") and an HTTP-date ("Fri,
// 07 Aug 2026 12:00:00 GMT"), which is converted to a delay against the
// injected clock. Unparseable values and dates at-or-before now yield 0 —
// the caller falls back to its own backoff, never stalls on a bad hint.
func (c *Client) retryAfterHint(value string) time.Duration {
	if value == "" {
		return 0
	}
	if secs, err := strconv.Atoi(value); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	when, err := http.ParseTime(value)
	if err != nil {
		return 0
	}
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	if d := when.Sub(now()); d > 0 {
		return d
	}
	return 0
}

// backoff computes the jittered exponential delay before retry attempt+1.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := c.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	if c.Jitter != nil {
		return c.Jitter(d)
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryableStatus reports whether a response status is transient: the
// server's own overload (503), breaker (503), and stage-timeout (504)
// answers, plus the conventional upstream flavours of the same.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// errorMessage extracts the JSON error body, falling back to the raw text.
func errorMessage(body []byte) string {
	var ae apiError
	if err := json.Unmarshal(body, &ae); err == nil && ae.Error != "" {
		return ae.Error
	}
	return string(bytes.TrimSpace(body))
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
