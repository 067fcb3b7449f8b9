// Package obshttp serves obs registry snapshots over HTTP: Prometheus
// text exposition at /metrics, the same snapshot as JSON at
// /metrics.json, the retained snapshot ring at /snapshots.json, and the
// engine observatory report at /engine.json. It lives outside the
// simulation packages on purpose — the simulator never imports it,
// drillvet's wall-clock and nondeterminism analyzers don't apply to it,
// and a scrape can never reach back into a run: handlers read only
// immutable published snapshots (or an atomic live capture before the
// first publication).
package obshttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"drill/internal/obs"
)

// Config wires a handler: the registry to expose, an optional engine
// report source for /engine.json, and an optional write-error callback.
type Config struct {
	// Reg is the registry behind /metrics, /metrics.json, /snapshots.json.
	Reg *obs.Registry
	// Engine, when non-nil, backs /engine.json; it is called per request
	// and may return nil (served as JSON null) while no report exists
	// yet. When Engine itself is nil the endpoint answers 404.
	Engine func() *obs.EngineReport
	// OnWriteError receives errors from writing a fully-rendered response
	// body to the client — almost always a scraper hanging up mid-body.
	// The response cannot be repaired at that point (the status line is
	// gone), so surfacing is all that remains; nil means drop silently.
	OnWriteError func(endpoint string, err error)
}

// NewHandler returns an http.Handler for the configuration.
func NewHandler(cfg Config) http.Handler {
	reg := cfg.Reg
	mux := http.NewServeMux()
	latest := func() *obs.Snapshot {
		if s := reg.Latest(); s != nil {
			return s
		}
		// Before the first sim-time snapshot (or with no snapshotter at
		// all), serve a live capture so scrapes always see the registry.
		return reg.Capture(0)
	}
	// Responses are rendered into a buffer before any byte hits the wire:
	// snapshots are small, an encoding error still gets a clean 500, and a
	// scraper hanging up mid-body cannot provoke a half-written exposition
	// (or the superfluous-WriteHeader log noise that comes with one). The
	// buffered write's own error — the hang-up case — is reported through
	// OnWriteError instead of being swallowed.
	send := func(w http.ResponseWriter, endpoint string, buf *bytes.Buffer) {
		if _, err := w.Write(buf.Bytes()); err != nil && cfg.OnWriteError != nil {
			cfg.OnWriteError(endpoint, err)
		}
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, latest()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		send(w, "/metrics", &buf)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, latest()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		send(w, "/metrics.json", &buf)
	})
	mux.HandleFunc("/snapshots.json", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.WriteByte('[')
		for i, s := range reg.Ring() {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := obs.WriteJSON(&buf, s); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		buf.WriteByte(']')
		w.Header().Set("Content-Type", "application/json")
		send(w, "/snapshots.json", &buf)
	})
	mux.HandleFunc("/engine.json", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Engine == nil {
			http.NotFound(w, r)
			return
		}
		buf, err := json.Marshal(cfg.Engine())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b := bytes.NewBuffer(buf)
		send(w, "/engine.json", b)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var buf bytes.Buffer
		fmt.Fprintln(&buf, "ok")
		send(w, "/healthz", &buf)
	})
	return mux
}

// Server is a live metrics endpoint bound to a TCP address.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// shutdownTimeout bounds how long Close waits for in-flight scrapes.
const shutdownTimeout = 2 * time.Second

// ServeConfig binds addr (e.g. "localhost:9137"; ":0" picks a free port)
// and serves the configured handler in a background goroutine until Close.
func ServeConfig(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewHandler(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address, useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the served base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server gracefully: the listener closes immediately, but
// in-flight scrapes get up to shutdownTimeout to finish their bodies
// before the remaining connections are hard-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		// Stragglers outlived the grace period (or the context was
		// cancelled): fall back to the hard close so the port is freed.
		closeErr := s.srv.Close()
		if closeErr != nil {
			return closeErr
		}
		return err
	}
	return nil
}
