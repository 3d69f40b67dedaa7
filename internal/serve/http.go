package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kamsta"
	"kamsta/internal/gen"
)

// The HTTP job API (cmd/mstserve):
//
//	POST   /v1/jobs          submit a job            → 202 {"id","status"}
//	GET    /v1/jobs/{id}     poll (?wait=2s, ?edges=1) → job status/result
//	DELETE /v1/jobs/{id}     cancel and forget       → 204
//	GET    /v1/stats         server snapshot
//	GET    /metrics          Prometheus export (when a registry is set)
//	GET    /healthz          liveness (the process serves requests)
//	GET    /readyz           readiness (not draining, not browned out,
//	                         live machines remain) — 503 with a reason
//	                         otherwise, for load balancers to steer around
//
// Errors are {"error","code"} JSON; code and status are a row of the
// rejection table (outcome.go), and a finished job's code a row of the
// outcome table. Overload rejections (429/503) carry a Retry-After header
// with the server's drain estimate, rounded up to whole seconds.

// wireEdge is one edge on the wire: [u, v, w].
type wireEdge [3]uint64

// wireSpec mirrors kamsta.GraphSpec with a string family name.
type wireSpec struct {
	Family string `json:"family"`
	N      uint64 `json:"n"`
	M      uint64 `json:"m,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// wireRequest is the POST /v1/jobs body.
type wireRequest struct {
	Tenant     string     `json:"tenant"`
	Algorithm  string     `json:"algorithm,omitempty"`
	Seed       uint64     `json:"seed,omitempty"`
	DeadlineMS int64      `json:"deadline_ms,omitempty"`
	PEs        int        `json:"pes,omitempty"`
	NoBatch    bool       `json:"no_batch,omitempty"`
	Spec       *wireSpec  `json:"spec,omitempty"`
	Edges      []wireEdge `json:"edges,omitempty"`
	File       string     `json:"file,omitempty"`
	FileFormat string     `json:"file_format,omitempty"`
}

// wireResult is the result payload of a finished job.
type wireResult struct {
	TotalWeight    uint64     `json:"total_weight"`
	NumEdges       int        `json:"num_edges"`
	InputVertices  int        `json:"input_vertices"`
	InputEdges     int        `json:"input_edges"`
	ModeledSeconds float64    `json:"modeled_seconds"`
	WallSeconds    float64    `json:"wall_seconds"`
	MSTEdges       []wireEdge `json:"mst_edges,omitempty"`
}

// wireJob is the GET /v1/jobs/{id} (and POST) response.
type wireJob struct {
	ID     uint64      `json:"id"`
	Tenant string      `json:"tenant,omitempty"`
	Status string      `json:"status"`
	Result *wireResult `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
	Code   string      `json:"code,omitempty"`
}

// Handler returns the HTTP API for the server, including /metrics when a
// registry is configured.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handlePoll)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	}
	return mux
}

// handleReady answers readiness: 200 while the server can do useful work,
// 503 while it should be steered around — out of live machines, browned
// out, or draining — naming the rejection code a submission would meet.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	var err error
	switch {
	case s.live(0) == 0:
		err = ErrShapeQuarantined
	case s.brownout():
		err = ErrBrownout
	case s.sched.lifecycle() != schedRunning:
		err = ErrDraining
	}
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, RejectionOf(err).Code)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var wr wireRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wr); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	req, err := wr.toRequest()
	if err != nil {
		writeError(w, err)
		return
	}
	if req.File != "" && !s.cfg.AllowFiles {
		writeError(w, fmt.Errorf("%w: file jobs are disabled on this server (-allow-files)", ErrBadRequest))
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, wireJob{ID: j.ID(), Tenant: j.Tenant(), Status: j.Status()})
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil || d < 0 {
			writeError(w, fmt.Errorf("%w: bad wait %q", ErrBadRequest, waitSpec))
			return
		}
		if d > time.Minute {
			d = time.Minute // bound long-polls; clients re-poll
		}
		select {
		case <-j.Done():
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	resp := wireJob{ID: j.ID(), Tenant: j.Tenant(), Status: j.Status()}
	if rep, err, done := j.Result(); done {
		if err != nil {
			resp.Error = err.Error()
			resp.Code = Outcome(err)
		} else {
			resp.Result = toWireResult(rep, r.URL.Query().Get("edges") != "")
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	j.Cancel()
	s.Forget(j.ID())
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad job id", ErrBadRequest))
		return nil, false
	}
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, wireJob{ID: id, Status: "unknown", Code: "not_found",
			Error: "no such job (finished results expire after the retention window)"})
		return nil, false
	}
	return j, true
}

// toRequest converts the wire form, resolving the graph family name.
func (wr wireRequest) toRequest() (Request, error) {
	req := Request{
		Tenant:     wr.Tenant,
		Algorithm:  kamsta.Algorithm(wr.Algorithm),
		Seed:       wr.Seed,
		Deadline:   time.Duration(wr.DeadlineMS) * time.Millisecond,
		PEs:        wr.PEs,
		NoBatch:    wr.NoBatch,
		File:       wr.File,
		FileFormat: wr.FileFormat,
	}
	if wr.Spec != nil {
		fam, err := gen.ParseFamily(wr.Spec.Family)
		if err != nil {
			return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		req.Spec = &kamsta.GraphSpec{Family: fam, N: wr.Spec.N, M: wr.Spec.M, Seed: wr.Spec.Seed}
	}
	if wr.Edges != nil {
		req.Edges = make([]kamsta.InputEdge, len(wr.Edges))
		for i, e := range wr.Edges {
			if e[2] > 1<<32-1 {
				return Request{}, fmt.Errorf("%w: edge weight %d overflows uint32", ErrBadRequest, e[2])
			}
			req.Edges[i] = kamsta.InputEdge{U: e[0], V: e[1], W: uint32(e[2])}
		}
	}
	return req, nil
}

func toWireResult(rep *kamsta.Report, includeEdges bool) *wireResult {
	res := &wireResult{
		TotalWeight:    rep.TotalWeight,
		NumEdges:       rep.NumEdges,
		InputVertices:  rep.InputVertices,
		InputEdges:     rep.InputEdges,
		ModeledSeconds: rep.ModeledSeconds,
		WallSeconds:    rep.WallSeconds,
	}
	if includeEdges {
		res.MSTEdges = make([]wireEdge, len(rep.MSTEdges))
		for i, e := range rep.MSTEdges {
			res.MSTEdges[i] = wireEdge{e.U, e.V, uint64(e.W)}
		}
	}
	return res
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a Submit error as its rejection-table row: HTTP status
// plus machine-readable code. Overload rejections carrying a server hint
// also set Retry-After (delta-seconds, rounded up — the header has
// whole-second granularity).
func writeError(w http.ResponseWriter, err error) {
	if hint, ok := retryAfterOf(err); ok {
		secs := max(1, int64((hint+time.Second-1)/time.Second))
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	row := RejectionOf(err)
	writeJSON(w, row.Status, map[string]string{"error": err.Error(), "code": row.Code})
}
