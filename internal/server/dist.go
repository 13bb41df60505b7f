package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/dist"
)

// handleDistRegister serves POST /dist/register: a worker node
// (volcano-serve -coordinator) announces (or re-announces) the address
// the coordinator should dispatch fragments to and health-check.
// Registration is idempotent, so workers repeat it periodically as a
// liveness refresher.
func (s *Server) handleDistRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a worker registration", http.StatusMethodNotAllowed)
		return
	}
	var req dist.RegisterRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<10)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("server: bad register request: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.cfg.Dist.Register(req.Addr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleDebugWorkers serves GET /debug/workers: the registered fleet
// with liveness and per-worker dispatch counts.
func (s *Server) handleDebugWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET the worker fleet", http.StatusMethodNotAllowed)
		return
	}
	workers := s.cfg.Dist.Workers()
	live := 0
	for _, wk := range workers {
		if wk.Live {
			live++
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Workers []dist.WorkerInfo `json:"workers"`
		Live    int               `json:"live"`
	}{Workers: workers, Live: live})
}
