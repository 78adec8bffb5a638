package telemetry

import (
	"context"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"time"
)

// Plane is what one front door serves over HTTP: the run it reports, the
// components whose health it folds in, the extras its stream carries and
// the endpoints it mounts beside the built-in ones.  A front door builds
// its plane and passes it in; nothing is registered process-wide, so two
// planes in one process never report each other's state.
type Plane struct {
	// Run, when non-nil, is the plane's run: /healthz reports its health
	// and /streamz its matrix.  A service running many runs leaves it
	// nil, and its health is its components'.
	Run *Scope
	// Components are named health suppliers /healthz and /streamz poll,
	// in name order; one that reports !ok turns /healthz into a 503.
	// Suppliers must be cheap and non-blocking.
	Components map[string]func() (detail string, ok bool)
	// Extras are named providers whose values every /streamz snapshot
	// carries under "extras".  They run on the stream's goroutine and
	// must be cheap and non-blocking.
	Extras map[string]func() any
	// Endpoints are exact paths served beside the built-in ones (the
	// oracle's /modelz); they must not shadow them.
	Endpoints map[string]http.Handler
}

// Handler returns the plane's endpoints:
//
//	/metrics       Prometheus text exposition of the Default registry
//	/healthz       JSON health: 200 while healthy/healing, 503 once degraded
//	/streamz       server-sent events: coalesced telemetry snapshots
//	/debug/pprof/  net/http/pprof profiles
//
// plus p.Endpoints, on a private mux so library users never pollute
// http.DefaultServeMux.  Each call has a stream hub of its own.
func (p Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range p.Endpoints {
		mux.Handle(path, h)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state, ok := p.runHealth()
		comps, compsOK := p.components()
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
				fmt.Fprintf(w, "%q:{\"detail\":%q,\"ok\":%v}", c.name, c.detail, c.ok)
			}
			fmt.Fprint(w, "}")
		}
		fmt.Fprint(w, "}\n")
	})
	mux.HandleFunc("/streamz", newStreamHub(p).serve)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runHealth is the plane's run's health, or "idle" and healthy.
func (p Plane) runHealth() (state string, ok bool) {
	if p.Run != nil {
		return p.Run.Health()
	}
	return "idle", true
}

// componentStatus is one component's current report.
type componentStatus struct {
	name, detail string
	ok           bool
}

// components polls every component, name-sorted, and reports whether all
// of them (possibly none) are healthy.
func (p Plane) components() (statuses []componentStatus, allOK bool) {
	allOK = true
	for _, name := range slices.Sorted(maps.Keys(p.Components)) {
		detail, ok := p.Components[name]()
		allOK = allOK && ok
		statuses = append(statuses, componentStatus{name, detail, ok})
	}
	return statuses, allOK
}

// Server hardening knobs.  Package variables rather than parameters so
// Serve keeps its shape; the slow-loris regression test lowers
// readHeaderTimeout to keep itself fast.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 30 * time.Second
	shutdownGrace     = 5 * time.Second
)

// Serve serves h on addr (e.g. "localhost:9100"; port 0 picks a free
// one) and returns the bound address and a stop function.  The server
// runs until stop is called or the process exits.
//
// The server is hardened against misbehaving clients: header, read and
// write timeouts bound every connection (a slow-loris peer is cut off at
// readHeaderTimeout), and stop drains gracefully — in-flight responses
// get shutdownGrace to finish before the listener is torn down.
func Serve(addr string, h http.Handler) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	base, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
	go srv.Serve(ln)
	stop = func() {
		// SSE handlers block until their request's context ends; end this
		// server's, and only this server's, so they return and Shutdown
		// can drain cleanly.
		cancel()
		ctx, cancelGrace := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancelGrace()
		if err := srv.Shutdown(ctx); err != nil {
			// Grace expired with connections still open: cut them.
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}
