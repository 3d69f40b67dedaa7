package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	// MaxRetries makes Submit retry overload rejections (429/503 back-
	// pressure: queue full, shed, brownout) up to that many extra attempts,
	// honoring the server's Retry-After hint when present and exponential
	// backoff with jitter otherwise. 0 (the default) surfaces rejections to
	// the caller — load generators do their own retry policy.
	MaxRetries int
	// RetryBase seeds the client backoff (default 50ms); RetryMax caps both
	// the backoff and any server Retry-After hint (default 2s), so a
	// pessimistic server cannot stall a client indefinitely.
	RetryBase time.Duration
	RetryMax  time.Duration
}

// RemoteJob is a submitted job handle on a remote server.
type RemoteJob struct {
	c      *Client
	id     uint64
	tenant string
}

// ID returns the server-assigned job id.
func (rj *RemoteJob) ID() uint64 { return rj.id }

// Tenant returns the submitting tenant.
func (rj *RemoteJob) Tenant() string { return rj.tenant }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Submit posts a job. Requests carrying a Source or Options are in-process
// only and are rejected client-side. Admission rejections surface as the
// same sentinel errors the in-process Submit returns (overload rejections
// wrapped in *RetryAfterError when the server sent a hint); with
// MaxRetries set, overload rejections are retried here first.
func (c *Client) Submit(ctx context.Context, req Request) (*RemoteJob, error) {
	if req.Source != nil || len(req.Options) > 0 {
		return nil, fmt.Errorf("%w: Source and Options are in-process only", ErrBadRequest)
	}
	rj, err := c.submitOnce(ctx, req)
	for attempt := 0; err != nil && attempt < c.MaxRetries && isOverload(err); attempt++ {
		if werr := sleepCtx(ctx, c.retryDelay(err, attempt)); werr != nil {
			return nil, err // report the rejection, not the cancelled sleep
		}
		rj, err = c.submitOnce(ctx, req)
	}
	return rj, err
}

// isOverload reports whether a rejection is transient server back-pressure
// worth retrying (as opposed to a malformed or unauthorized request).
func isOverload(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQueueFull) ||
		errors.Is(err, ErrDeadlineUnattainable) || errors.Is(err, ErrBrownout)
}

// retryDelay picks the wait before retry attempt n: the server's
// Retry-After hint when present, else RetryBase·2^n, both jittered ±50%
// and capped at RetryMax.
func (c *Client) retryDelay(err error, attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxD := c.RetryMax
	if maxD <= 0 {
		maxD = 2 * time.Second
	}
	d := base << min(attempt, 20)
	if hint, ok := retryAfterOf(err); ok && hint > 0 {
		d = hint
	}
	if d <= 0 || d > maxD {
		d = maxD
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) submitOnce(ctx context.Context, req Request) (*RemoteJob, error) {
	wr := wireRequest{
		Tenant:     req.Tenant,
		Algorithm:  string(req.Algorithm),
		Seed:       req.Seed,
		DeadlineMS: req.Deadline.Milliseconds(),
		PEs:        req.PEs,
		NoBatch:    req.NoBatch,
		File:       req.File,
		FileFormat: req.FileFormat,
	}
	if req.Spec != nil {
		wr.Spec = &wireSpec{
			Family:      req.Spec.Family.Name(),
			N:           req.Spec.N,
			M:           req.Spec.M,
			Seed:        req.Spec.Seed,
			PLExp:       req.Spec.PLExp,
			LocalityMix: req.Spec.LocalityMix,
		}
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
	return &RemoteJob{c: c, id: wj.ID, tenant: wj.Tenant}, nil
}

// Wait polls (long-poll windows of PollWait) until the job finishes or ctx
// expires. Job errors come back as their in-process equivalents where a
// mapping exists (deadline, cancelled).
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
			return nil, wireOutcomeError(wj.Code, wj.Error)
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
			err := wireCodeError(apiErr.Code, apiErr.Error)
			// Re-attach the server's backoff hint so callers (and this
			// client's own retry loop) see the same RetryAfterError shape
			// the in-process Submit returns.
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

// wireCodeError maps an admission rejection code back to its sentinel.
func wireCodeError(code, msg string) error {
	switch code {
	case "queue_full":
		return fmt.Errorf("%w (%s)", ErrQueueFull, msg)
	case "tenant_queue_full":
		return fmt.Errorf("%w (%s)", ErrTenantQueueFull, msg)
	case "unknown_tenant":
		return fmt.Errorf("%w (%s)", ErrUnknownTenant, msg)
	case "draining":
		return fmt.Errorf("%w (%s)", ErrDraining, msg)
	case "no_shape":
		return fmt.Errorf("%w (%s)", ErrNoSuchShape, msg)
	case "shed_deadline":
		return fmt.Errorf("%w (%s)", ErrDeadlineUnattainable, msg)
	case "brownout":
		return fmt.Errorf("%w (%s)", ErrBrownout, msg)
	case "quarantined":
		return fmt.Errorf("%w (%s)", ErrShapeQuarantined, msg)
	default:
		return fmt.Errorf("%w: %s", ErrBadRequest, msg)
	}
}

// wireOutcomeError maps a finished job's outcome code to the error the
// in-process Job.Wait would return.
func wireOutcomeError(code, msg string) error {
	switch code {
	case "deadline":
		return fmt.Errorf("%w (%s)", context.DeadlineExceeded, msg)
	case "cancelled":
		return fmt.Errorf("%w (%s)", context.Canceled, msg)
	case "quarantined":
		return fmt.Errorf("%w (%s)", ErrShapeQuarantined, msg)
	default:
		return fmt.Errorf("serve: remote job failed (%s): %s", code, msg)
	}
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
