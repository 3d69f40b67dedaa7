package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"kamsta"
)

// Client talks to a remote mstserve over the /v1 job API. It mirrors the
// in-process Submit/Wait surface so load generators and tools can target
// either transparently (see loadgen.Target).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
	// PollWait is the long-poll window per status request (default 2s).
	PollWait time.Duration
}

// RemoteJob is a submitted job handle on a remote server.
type RemoteJob struct {
	c  *Client
	id uint64
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Submit posts a job. Requests carrying a Source or Options are in-process
// only and are rejected client-side. Admission rejections surface as the
// same sentinel errors the in-process Submit returns (overload rejections
// wrapped in *RetryAfterError when the server sent a hint); what to do about
// one is the caller's policy — RejectionOf(err).Class says what the server
// asked for.
func (c *Client) Submit(ctx context.Context, req Request) (*RemoteJob, error) {
	if req.Source != nil || len(req.Options) > 0 {
		return nil, fmt.Errorf("%w: Source and Options are in-process only", ErrBadRequest)
	}
	wr := wireRequest{
		Tenant:    req.Tenant,
		Algorithm: string(req.Algorithm),
		Seed:      req.Seed,
		// Rounded up: a sub-millisecond deadline stays a deadline (0 means none).
		DeadlineMS: (req.Deadline + time.Millisecond - 1).Milliseconds(),
		PEs:        req.PEs,
		NoBatch:    req.NoBatch,
		File:       req.File,
		FileFormat: req.FileFormat,
	}
	if req.Spec != nil {
		wr.Spec = &wireSpec{Family: req.Spec.Family.Name(), N: req.Spec.N, M: req.Spec.M, Seed: req.Spec.Seed}
	}
	if req.Edges != nil {
		wr.Edges = make([]wireEdge, len(req.Edges))
		for i, e := range req.Edges {
			wr.Edges[i] = wireEdge{e.U, e.V, uint64(e.W)}
		}
	}
	var wj wireJob
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", wr, &wj); err != nil {
		return nil, err
	}
	return &RemoteJob{c: c, id: wj.ID}, nil
}

// Wait polls (long-poll windows of PollWait) until the job finishes or ctx
// expires. A job error comes back under the outcome it had on the server:
// Outcome(err) names it, and errors.Is matches its row's sentinel.
func (rj *RemoteJob) Wait(ctx context.Context) (*kamsta.Report, error) {
	wait := rj.c.PollWait
	if wait <= 0 {
		wait = 2 * time.Second
	}
	path := fmt.Sprintf("/v1/jobs/%d?wait=%s&edges=1", rj.id, wait)
	for {
		var wj wireJob
		if err := rj.c.do(ctx, http.MethodGet, path, nil, &wj); err != nil {
			return nil, err
		}
		if wj.Status != "done" {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		if wj.Error != "" {
			return nil, remoteOutcome(wj.Code, wj.Error)
		}
		return fromWireResult(wj.Result), nil
	}
}

// Cancel cancels the remote job and releases its result slot.
func (rj *RemoteJob) Cancel(ctx context.Context) error {
	return rj.c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", rj.id), nil, nil)
}

// Stats fetches the server snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Healthy reports whether /healthz answers.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil) == nil
}

// do round-trips one API call, decoding {"error","code"} bodies into the
// sentinel errors the in-process API uses.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr struct{ Error, Code string }
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Code != "" {
			err := fmt.Errorf("%w (%s)", rejectionByCode(apiErr.Code).Err, apiErr.Error)
			// Re-attach the server's backoff hint so callers see the same
			// RetryAfterError shape the in-process Submit returns.
			if secs, perr := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); perr == nil && secs > 0 {
				err = &RetryAfterError{Err: err, RetryAfter: time.Duration(secs) * time.Second}
			}
			return err
		}
		return fmt.Errorf("serve: %s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func fromWireResult(res *wireResult) *kamsta.Report {
	if res == nil {
		return &kamsta.Report{}
	}
	rep := &kamsta.Report{
		TotalWeight:    res.TotalWeight,
		NumEdges:       res.NumEdges,
		InputVertices:  res.InputVertices,
		InputEdges:     res.InputEdges,
		ModeledSeconds: res.ModeledSeconds,
		WallSeconds:    res.WallSeconds,
	}
	if len(res.MSTEdges) > 0 {
		rep.MSTEdges = make([]kamsta.InputEdge, len(res.MSTEdges))
		for i, e := range res.MSTEdges {
			rep.MSTEdges[i] = kamsta.InputEdge{U: e[0], V: e[1], W: uint32(e[2])}
		}
	}
	return rep
}
