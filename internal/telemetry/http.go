package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// The HTTP plane: /metrics in Prometheus text format, /healthz reflecting
// the attached run's health (its supervisor's rung, its oracle's verdict)
// and the registered components', and the standard pprof handlers —
// mounted on a private mux so library users never pollute
// http.DefaultServeMux.  A process without an attached run, a service
// running many, reports only its components.

// extra holds endpoints registered by other packages (e.g. the model
// oracle's /modelz) so they are mounted on every Handler/Serve without
// telemetry importing them.
var (
	extraMu sync.Mutex
	extra   = map[string]http.Handler{}
)

// Handle registers an extra endpoint served by Handler and Serve.  The
// registry is consulted per request, so registering before or after the
// server starts both work — cmd/opal serves early and arms the oracle's
// /modelz later.  Registering the same pattern again replaces the
// previous handler; a nil handler removes it.  Patterns are exact paths
// and must not shadow the built-in endpoints.
func Handle(pattern string, h http.Handler) {
	extraMu.Lock()
	defer extraMu.Unlock()
	if h == nil {
		delete(extra, pattern)
		return
	}
	extra[pattern] = h
}

// Handler returns the telemetry endpoints:
//
//	/metrics       Prometheus text exposition of the Default registry
//	/healthz       JSON health: 200 while healthy/healing, 503 once degraded
//	/streamz       server-sent events: coalesced telemetry snapshots
//	/debug/pprof/  net/http/pprof profiles
//
// plus any endpoints registered via Handle (e.g. the oracle's /modelz).
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		extraMu.Lock()
		h := extra[r.URL.Path]
		extraMu.Unlock()
		if h == nil {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state, ok := processHealth()
		comps, compsOK := ComponentHealth()
		ok = ok && compsOK
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"state\":%q,\"ok\":%v,\"run\":%q,\"respawns\":%d,\"deaths\":%d",
			state, ok, Run(), SupRespawns.Value(), SupDeaths.Value())
		if len(comps) > 0 {
			fmt.Fprint(w, ",\"components\":{")
			for i, c := range comps {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, "%q:{\"detail\":%q,\"ok\":%v}", c.Name, c.Detail, c.OK)
			}
			fmt.Fprint(w, "}")
		}
		fmt.Fprint(w, "}\n")
	})
	mux.HandleFunc("/streamz", streamzHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server hardening knobs.  Package variables rather than parameters so
// Serve keeps its one-argument shape; the slow-loris regression test
// lowers readHeaderTimeout to keep itself fast.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	shutdownGrace     = 5 * time.Second
)

// Serve starts the telemetry endpoints on addr (e.g. "localhost:9100";
// port 0 picks a free one) and returns the bound address and a stop
// function.  The server runs until stop is called or the process exits.
//
// The server is hardened against misbehaving clients: header, read and
// write timeouts bound every connection (a slow-loris peer is cut off at
// readHeaderTimeout), and stop drains gracefully — in-flight responses
// get shutdownGrace to finish before the listener is torn down.
func Serve(addr string) (bound string, stop func(), err error) {
	return ServeHandler(addr, Handler())
}

// ServeHandler is Serve with a caller-supplied handler — the control
// plane mounts its API this way so its endpoints share the hardened
// server and graceful shutdown with the plain telemetry plane.
func ServeHandler(addr string, h http.Handler) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
	}
	go srv.Serve(ln)
	stop = func() {
		// SSE handlers block on their subscription channel; close the
		// streams first so they return and Shutdown can drain cleanly.
		CloseStreams()
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Grace expired with connections still open: cut them.
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}
