package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"rccsim/internal/obs/span"
)

// OpenMetricsContentType is the media type the OpenMetrics 1.0 spec
// requires for the text exposition format served on /metrics.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// StartServer binds addr and serves the live introspection endpoints in a
// background goroutine: /metrics (OpenMetrics text from reg), /runs (the
// tracker's JSON point registry), /healthz, and the stdlib pprof handlers
// under /debug/pprof/. It returns the bound address (so ":0" works in
// tests) or an error if the listen fails. The server lives for the rest
// of the process; CLI invocations exit when their run does.
func StartServer(addr string, reg *Registry, tr *Tracker) (string, error) {
	return StartServerSpans(addr, reg, tr, nil)
}

// StartServerSpans is StartServer plus a /spans endpoint serving the
// causal-span recorder's summary as JSON: percentile waterfalls per
// segment, aggregate blame, the critical path, and the top-N slowest
// sampled ops (?top=N, default 10). The recorder is internally locked, so
// scraping mid-run observes a consistent snapshot of finished spans. A nil
// recorder serves 404 on /spans (span recording off).
func StartServerSpans(addr string, reg *Registry, tr *Tracker, sp *span.Recorder) (string, error) {
	return startServer(addr, reg, tr, sp, nil)
}

// StartServerLedger is StartServerSpans plus the /ledger archive endpoint
// (pass ledger.Handler(l); nil mounts nothing). The handler is an opaque
// http.Handler rather than a *ledger.Ledger because the dependency runs
// the other way: sim imports obs, and ledger sits above both.
func StartServerLedger(addr string, reg *Registry, tr *Tracker, sp *span.Recorder, ledger http.Handler) (string, error) {
	return startServer(addr, reg, tr, sp, ledger)
}

// startServer is the shared implementation behind the StartServer*
// helpers.
func startServer(addr string, reg *Registry, tr *Tracker, sp *span.Recorder, ledger http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", OpenMetricsContentType)
		_ = reg.WriteOpenMetrics(w)
	})
	if tr != nil {
		mux.Handle("/runs", tr)
	}
	if sp != nil {
		mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
			top := 10
			if q := r.URL.Query().Get("top"); q != "" {
				if n, err := strconv.Atoi(q); err == nil && n >= 0 {
					top = n
				}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = sp.WriteJSON(w, top)
		})
	}
	if ledger != nil {
		mux.Handle("/ledger", ledger)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
