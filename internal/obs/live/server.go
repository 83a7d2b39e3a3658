package live

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"pipemap/internal/obs"
)

// ServerOptions configures a live observability server. All sources are
// optional; endpoints backed by an absent source degrade gracefully
// (empty exposition, 503 readiness).
type ServerOptions struct {
	// Monitor is the pipeline health model behind /pipeline, /readyz and
	// the pipemap_* exposition series.
	Monitor *Monitor
	// Source, when set, supplies the monitor per request instead of
	// Monitor. An adaptive runtime wires its current-generation monitor
	// here so the served health model follows live migrations.
	Source func() *Monitor
	// Controller, when set, is called per /pipeline request and its result
	// serialized under the "controller" key of the payload (the adaptive
	// controller's status).
	Controller func() any
	// Registry adds its instruments to /metrics.
	Registry *Registry
	// Ingest, when set, is called per /pipeline request and its result
	// serialized under the "ingest" key of the payload (the ingestion
	// plane's stats).
	Ingest func() any
	// SLO, when set, is called per /slo request and its result serialized
	// as the response (the slo.Engine's Report). It is also invoked once
	// per /metrics scrape before the exposition is written, so the burn
	// gauges an engine publishes into Registry are fresh at scrape time.
	SLO func() any
	// Flight, when set, backs /debug/flightrecorder with the flight
	// recorder's snapshot. ?format=chrome converts the dump to Chrome
	// trace_event JSON.
	Flight func() []obs.FlightEntry
	// Extra mounts additional handlers on the server's mux by pattern
	// (e.g. "/v1/submit" for an ingestion plane). Patterns collide with
	// built-in routes at the mux's discretion; pick distinct ones.
	Extra map[string]http.Handler
	// DisablePprof removes the /debug/pprof handlers.
	DisablePprof bool
}

// Server is the embeddable live observability HTTP server. Construct with
// NewServer, then either mount Handler on an existing mux or call Start to
// listen on an address.
type Server struct {
	opt   ServerOptions
	mux   *http.ServeMux
	extra []string

	ln   net.Listener
	http *http.Server
}

// NewServer builds the server and its routes.
func NewServer(opt ServerOptions) *Server {
	s := &Server{opt: opt, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.index)
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/readyz", s.readyz)
	s.mux.HandleFunc("/pipeline", s.pipeline)
	s.mux.HandleFunc("/events", s.events)
	if opt.SLO != nil {
		s.mux.HandleFunc("/slo", s.slo)
	}
	if opt.Flight != nil {
		s.mux.HandleFunc("/debug/flightrecorder", s.flight)
	}
	if !opt.DisablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for pat, h := range opt.Extra {
		s.mux.Handle(pat, h)
		s.extra = append(s.extra, pat)
	}
	sort.Strings(s.extra)
	return s
}

// Handler returns the server's routes for embedding in another mux or for
// httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// monitor resolves the monitor serving this request.
func (s *Server) monitor() *Monitor {
	if s.opt.Source != nil {
		return s.opt.Source()
	}
	return s.opt.Monitor
}

// Start listens on addr (e.g. ":9090" or "127.0.0.1:0") and serves in a
// background goroutine until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("live: listening on %s: %w", addr, err)
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(ln) }()
	return nil
}

// Addr returns the bound address after Start (empty before).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight /events streams end with their
// connections.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `pipemap live observability
  /metrics      Prometheus text exposition
  /healthz      liveness
  /readyz       readiness (503 while starting or degraded)
  /pipeline     pipeline health model (JSON)
  /events       fault event stream (NDJSON; ?follow=0 for history only)
  /debug/pprof  profiling
`)
	if s.opt.SLO != nil {
		fmt.Fprintln(w, "  /slo          SLO objectives and burn rates (JSON)")
	}
	if s.opt.Flight != nil {
		fmt.Fprintln(w, "  /debug/flightrecorder  last-N request traces, sheds, adapt decisions (?format=chrome)")
	}
	for _, pat := range s.extra {
		fmt.Fprintf(w, "  %s\n", pat)
	}
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.opt.SLO != nil {
		// Evaluating the SLO engine publishes its burn gauges into the
		// registry; do it before writing the exposition so the scrape sees
		// current values.
		_ = s.opt.SLO()
	}
	_ = WriteProm(w, s.monitor(), s.opt.Registry)
}

func (s *Server) slo(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.opt.SLO())
}

// flight dumps the flight recorder. ?format=chrome emits Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto.
func (s *Server) flight(w http.ResponseWriter, r *http.Request) {
	entries := s.opt.Flight()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		events := obs.ChromeEvents(entries)
		_ = enc.Encode(map[string]any{"traceEvents": events})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = enc.Encode(map[string]any{"count": len(entries), "entries": entries})
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	h := s.monitor().Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ready":  h.Ready,
		"status": h.Status,
		"reason": h.Reason,
	})
}

func (s *Server) pipeline(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	h := s.monitor().Health()
	switch {
	case s.opt.Controller != nil && s.opt.Ingest != nil:
		_ = enc.Encode(struct {
			Health
			Controller any `json:"controller"`
			Ingest     any `json:"ingest"`
		}{h, s.opt.Controller(), s.opt.Ingest()})
	case s.opt.Controller != nil:
		_ = enc.Encode(struct {
			Health
			Controller any `json:"controller"`
		}{h, s.opt.Controller()})
	case s.opt.Ingest != nil:
		_ = enc.Encode(struct {
			Health
			Ingest any `json:"ingest"`
		}{h, s.opt.Ingest()})
	default:
		_ = enc.Encode(h)
	}
}

// events streams the fault-event history followed by live events as NDJSON
// until the client disconnects. ?follow=0 returns the history and closes,
// which is what curl and smoke tests want.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	hub := s.monitor().Events()
	enc := json.NewEncoder(w)
	follow := true
	if v := r.URL.Query().Get("follow"); v != "" {
		if b, err := strconv.ParseBool(v); err == nil {
			follow = b
		}
	}
	flusher, canFlush := w.(http.Flusher)
	if hub == nil {
		return
	}
	// Subscribe before reading history so no event can fall between the
	// two; events published between the subscribe and the history read are
	// both in the replayed history and on the channel, so exactly
	// histSeq-subSeq leading channel events are duplicates to skip.
	ch, subSeq, cancel := hub.Subscribe(64)
	defer cancel()
	hist, histSeq := hub.HistoryN()
	done := r.Context().Done()
	for _, ev := range hist {
		// A gone client's writes may buffer without erroring for a while;
		// the context is the authoritative disconnect signal, so check it
		// every iteration rather than spinning through a long replay.
		select {
		case <-done:
			return
		default:
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
	if canFlush {
		flusher.Flush()
	}
	if !follow {
		return
	}
	skip := histSeq - subSeq
	if skip < 0 {
		skip = 0
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if skip > 0 {
				skip--
				continue
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
}
