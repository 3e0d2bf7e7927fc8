package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
)

// DebugHandler serves the long-run debugging surface for a scope:
//
//	/debug/pprof/*  net/http/pprof profiles
//	/debug/vars     expvar: the Go runtime's own vars, not the scope's
//	/metrics        the scope's metric snapshot, plain text
//	/metrics.json   the same snapshot as JSON
func DebugHandler(s *Scope) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.Metrics().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.Metrics())
	})
	return mux
}

// writeJSON marshals v onto w (indented); errors surface as a 500.
func writeJSON(w http.ResponseWriter, v any) {
	if err := jsonIndent(w, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// jsonIndent writes v as indented JSON.
func jsonIndent(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
