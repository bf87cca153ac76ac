package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"difftrace/internal/obs/telemetry"
)

// errorResponse is the wire shape of every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the difftraced HTTP API:
//
//	POST /v1/diff      submit a pair           202 queued / 200 cached /
//	                                           400 bad request /
//	                                           429 queue full (Retry-After) /
//	                                           503 draining
//	GET  /v1/jobs/{id} job status + artifacts  200 / 404
//	                   (running jobs include live progress + trace_id)
//	GET  /healthz      liveness + queue state  200 ok /
//	                                           503 draining (Retry-After)
//	GET  /metrics      Prometheus exposition   200 (text; ?format=json for
//	                                           the live manifest, ?format=
//	                                           summary for the human table)
//	GET  /debug/flight recent completed jobs   200 (JSON ring, newest first)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/diff", s.handleDiff)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response writer errors have no recovery
}

func (s *Service) handleDiff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req DiffRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	view, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Only a cache hit is done at admission, and its view already carries
	// the artifacts its hit check verified.
	status := http.StatusAccepted
	if view.State == StateDone {
		status = http.StatusOK
	}
	writeJSON(w, status, view)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	view, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	if view.State == StateDone {
		s.attachArtifacts(&view)
	}
	writeJSON(w, http.StatusOK, view)
}

// attachArtifacts loads the stored report/manifest into the response. A
// done job whose artifacts fail verification (quarantined between runs)
// degrades the view: state reverts to failed with an explanatory error
// rather than serving corrupt bytes.
func (s *Service) attachArtifacts(resp *JobView) {
	report, manifest, ok := s.Artifacts(resp.ID)
	if !ok {
		resp.State = StateFailed
		resp.Error = "stored artifacts missing or quarantined; resubmit to recompute"
		return
	}
	resp.Report = string(report)
	resp.Manifest = json.RawMessage(manifest)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		// A draining service is past saving for this client; the hint tells
		// load balancers when a replacement is worth probing.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":    "draining",
			"draining":  true,
			"queue_len": s.QueueDepth(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"draining":  false,
		"queue_len": s.QueueDepth(),
	})
}

// handleMetrics serves the service registry. The default is the Prometheus
// text exposition format (scrapable); ?format=json returns the live —
// unscrubbed — manifest JSON, and ?format=summary the human-readable table
// the endpoint used to serve. None of these outputs are deterministic and
// none are stored: scrubbing applies to artifacts, not scrapes.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("metrics disabled (no obs run configured)\n")) //nolint:errcheck
		return
	}
	// The flight ring's depth is itself a metric worth scraping.
	s.cfg.Obs.Gauge("service.flight_records").Set(int64(s.flight.Len()))
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		s.cfg.Obs.Manifest().WriteJSON(w) //nolint:errcheck // response writer errors have no recovery
	case "summary", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.cfg.Obs.WriteSummary(w)
	default:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, s.cfg.Obs.Manifest()) //nolint:errcheck // response writer errors have no recovery
	}
}

// handleFlight dumps the flight recorder: the last N completed jobs, newest
// first, in the same shape the SIGTERM drain persists to the store sidecar.
func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w) //nolint:errcheck // response writer errors have no recovery
}
