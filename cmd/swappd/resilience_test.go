package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
)

// TestHTTPServerTimeouts is a regression guard: the daemon's listener must
// never go back to the zero http.Server, where a client holding a socket
// open (slowloris) pins a goroutine and its connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow request lines pin connections")
	}
	if hs.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: drip-fed bodies pin connections")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alives accumulate")
	}
	if hs.MaxHeaderBytes <= 0 {
		t.Error("MaxHeaderBytes unset: unbounded header memory per request")
	}
	if hs.WriteTimeout != 0 {
		t.Error("WriteTimeout must stay unset: evaluations legitimately run for minutes")
	}
}

// TestEvalPanicRoundTrip is the daemon half of the acceptance scenario:
// with an evaluation that panics on its first call, the first request
// 500s, the daemon stays up and healthy, the identical retry succeeds,
// and the drain still exits 0.
func TestEvalPanicRoundTrip(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	close(release) // never park: the stub returns immediately
	stub := stubEval(&started, release)
	var calls atomic.Int64
	evalOverride = func(ctx context.Context, op string, req swapp.Request) (*swapp.Result, error) {
		if calls.Add(1) == 1 {
			panic("evaluation blew up")
		}
		return stub(ctx, op, req)
	}
	defer func() { evalOverride = nil }()

	stdout := newAddrWriter()
	var stderr bytes.Buffer
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0"}, stdout, &stderr, sig)
	}()
	var addr string
	select {
	case addr = <-stdout.addr:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never reported its address")
	}

	post := func() (int, []byte) {
		resp, err := http.Post("http://"+addr+"/v1/project", "application/json",
			strings.NewReader(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := post()
	if code != http.StatusInternalServerError {
		t.Fatalf("panicked evaluation: status %d (%s), want 500", code, body)
	}
	if !bytes.Contains(body, []byte("panic")) {
		t.Errorf("500 body does not mention the panic: %s", body)
	}

	// The daemon survived: health is green and the retry evaluates.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz after panic: %v / %v", err, resp)
	}
	resp.Body.Close()
	if code, body := post(); code != http.StatusOK {
		t.Fatalf("retry after the panic: status %d (%s), want 200", code, body)
	}

	sig <- os.Interrupt
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("daemon exited %d after surviving a panic, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never exited")
	}
}
