package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"spp1000/internal/experiments"
	"spp1000/internal/store"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a job (JSON body, see submitRequest)
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result rendered result (202 while pending)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/store/{key}      framed store entry export (peer fetch)
//	GET    /metrics             plaintext gauges and counters
//	GET    /healthz             liveness probe
//
// When Config.ID is set (a clustered backend), every response carries
// an X-Spp-Backend header naming this daemon.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/store/{key}", s.handleStoreExport)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.ID == "" {
		return mux
	}
	id := s.cfg.ID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Spp-Backend", id)
		mux.ServeHTTP(w, r)
	})
}

// handleStoreExport serves one content-addressed result in the store's
// CRC32-framed entry encoding — the cluster's peer-fetch payload: a
// done job's result from the table, else the durable store's entry. It
// is a pure peek: no counter moves and no job is recorded, so peers
// probing for entries cannot distort this backend's books. Unknown keys
// and store read failures are 404 (the prober recomputes); malformed
// keys are 400 — they could never have been minted by Spec.Key, so the
// request is a bug.
func (s *Server) handleStoreExport(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed result key %q: want the lowercase-hex content address", key))
		return
	}
	val, _, err := s.Result(key)
	ok := err == nil
	if !ok && s.cfg.Store != nil {
		// A read error reads as absent: the prober recomputes.
		val, ok, _ = s.cfg.Store.Get(key)
	}
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no store entry for %s", key))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(store.Encode(val))
}

// SubmitKey parses a POST /v1/jobs body exactly as the daemon itself
// does — alias expansion, option defaults, normalization — and returns
// the content address the resulting job would get. sppgw routes
// submissions with it: the gateway stays ignorant of the experiment
// vocabulary (it is injected as gateway.Config.SubmitKey by cmd/sppgw)
// while still agreeing byte-for-byte with every backend about which
// key a body hashes to.
func SubmitKey(body []byte) (string, error) {
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", fmt.Errorf("bad request body: %w", err)
	}
	spec, err := specFromRequest(req)
	if err != nil {
		return "", err
	}
	return spec.Key(), nil
}

// submitRequest is the POST /v1/jobs body. Options may be omitted:
// jobs then run at paper scale (experiments.Defaults), or reduced scale
// when quick is set. Setting both quick and options is rejected with
// 400 — the combination is ambiguous (which scale wins?) and silently
// picking one would hand back a different content address than the
// caller thinks they asked for.
type submitRequest struct {
	// Experiments is a list of ids, or a single element such as "all" /
	// "extra" / "everything" which is expanded like sppbench -exp.
	Experiments []string             `json:"experiments"`
	Options     *experiments.Options `json:"options,omitempty"`
	Quick       bool                 `json:"quick,omitempty"`
	// Timeout bounds this job's execution as a Go duration string
	// ("30s", "5m"); empty falls back to the daemon's -job-timeout.
	// It is execution policy, not configuration: it does not enter the
	// content address, and a submission that joins an already-live job
	// does not change that job's deadline.
	Timeout string `json:"timeout,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := specFromRequest(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var timeout time.Duration
	if req.Timeout != "" {
		timeout, err = time.ParseDuration(req.Timeout)
		if err != nil || timeout <= 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("bad timeout %q: want a positive Go duration such as \"30s\"", req.Timeout))
			return
		}
	}
	v, err := s.Submit(spec, timeout)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// 202 while work is (or may be) pending; 200 when answered by a
	// finished job.
	code := http.StatusAccepted
	if Status(v.Status).Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, v)
}

// specFromRequest expands aliases, applies option defaults, and
// normalizes — the one place wire input becomes a canonical Spec.
func specFromRequest(req submitRequest) (experiments.Spec, error) {
	names := req.Experiments
	if len(names) == 1 {
		switch names[0] {
		case "all", "extra", "everything":
			expanded, err := experiments.ResolveNames(names[0])
			if err != nil {
				return experiments.Spec{}, err
			}
			names = expanded
		}
	}
	if req.Quick && req.Options != nil {
		return experiments.Spec{}, errors.New(
			`"quick" and "options" are mutually exclusive: quick selects the reduced preset, options pins every scale field explicitly`)
	}
	opts := experiments.Defaults()
	if req.Quick {
		opts = experiments.Quick()
	}
	if req.Options != nil {
		opts = *req.Options
	}
	return experiments.Spec{Experiments: names, Options: opts}.Normalize()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, v, err := s.Result(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		// Not done yet (202 so pollers just retry) or terminally
		// unsuccessful (conflict: there will never be a result).
		code := http.StatusAccepted
		if Status(v.Status).Terminal() {
			code = http.StatusConflict
		}
		writeJSON(w, code, v)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Sppd-Cached", fmt.Sprintf("%t", v.Cached))
	fmt.Fprint(w, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.Cancel(r.PathValue("id"))
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeJSON(w, http.StatusConflict, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
