package serve

import (
	"context"
	"errors"
	"net/http"

	"kamsta"
)

// This file is the one definition of every way a job can end. A submission
// the server refuses ends in a row of rejections; an admitted job ends in a
// row of outcomes. Everything that names an ending — the rejection and
// completion counters, the HTTP status and code, serve.Client's
// reconstruction, loadgen's histogram, the tables in DESIGN.md §11.4 — is a
// lookup into these two tables, so a new failure mode is one new row.

// The sentinels Submit rejects with. All are errors.Is-able, in-process and
// through serve.Client; overload rejections arrive wrapped in a
// *RetryAfterError carrying the server's drain estimate.
var (
	// ErrQueueFull: the global queue bound is reached — the server is
	// saturated; back off and retry.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrTenantQueueFull: this tenant's queue share is full while the
	// server still has room for others — per-tenant isolation working.
	ErrTenantQueueFull = errors.New("serve: tenant queue full")
	// ErrDeadlineUnattainable: the job's deadline cannot survive the
	// estimated queue wait, so admitting it would only burn a machine slot
	// on a result nobody can use. Retry later or with a larger deadline.
	ErrDeadlineUnattainable = errors.New("serve: deadline cannot survive the current queue wait")
	// ErrBrownout: the server is degraded (deep queue or machines out of
	// service) and is shedding batch-eligible small jobs first to protect
	// the rest of the workload.
	ErrBrownout = errors.New("serve: brownout, shedding batch-eligible small jobs")
	// ErrDraining: the server is shutting down and admits no new jobs.
	ErrDraining = errors.New("serve: server is draining")
	// ErrShapeQuarantined: every pool machine that could serve the job has
	// left service. It rejects submissions and, as an outcome, fails jobs
	// that were already queued when their last machine left.
	ErrShapeQuarantined = errors.New("serve: no live machine for the job")
	// ErrUnknownTenant: the tenant is not configured and the server does
	// not auto-register tenants (Config.DefaultWeight == 0).
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrNoSuchShape: the job requests a PE count no pool machine has.
	ErrNoSuchShape = errors.New("serve: no pool machine with the requested PEs")
	// ErrBadRequest marks submissions rejected for being malformed (missing
	// tenant, zero or multiple graph sources, invalid edge labels, unknown
	// algorithm) rather than by back-pressure.
	ErrBadRequest = errors.New("serve: bad request")
)

// RejectClass is what a rejection asks of the client.
type RejectClass uint8

const (
	// Refused: this server will not take the request as it stands — fix it
	// or go elsewhere; resending it unchanged cannot succeed.
	Refused RejectClass = iota
	// Backpressure: a queue bound overflowed. The same job is welcome once
	// the queue drains: resend it after the Retry-After hint.
	Backpressure
	// Shed: the server is deliberately dropping this class of job to
	// protect the rest. A well-behaved client gives the job up.
	Shed
)

// Rejection is one row of the rejection table.
type Rejection struct {
	// Err is the sentinel Submit returns.
	Err error
	// Code is the wire code of the {"error","code"} body and the reason
	// label of serve_jobs_rejected_total.
	Code string
	// Status is the HTTP status.
	Status int
	Class  RejectClass
}

// rejections is the rejection table. The last row is the catch-all: an
// error matching no sentinel is a bad request.
var rejections = [...]Rejection{
	{ErrQueueFull, "queue_full", http.StatusTooManyRequests, Backpressure},
	{ErrTenantQueueFull, "tenant_queue_full", http.StatusTooManyRequests, Backpressure},
	{ErrDeadlineUnattainable, "shed_deadline", http.StatusTooManyRequests, Shed},
	{ErrBrownout, "brownout", http.StatusServiceUnavailable, Shed},
	{ErrDraining, "draining", http.StatusServiceUnavailable, Refused},
	{ErrShapeQuarantined, "quarantined", http.StatusServiceUnavailable, Refused},
	{ErrUnknownTenant, "unknown_tenant", http.StatusForbidden, Refused},
	{ErrNoSuchShape, "no_shape", http.StatusBadRequest, Refused},
	{ErrBadRequest, "bad_request", http.StatusBadRequest, Refused},
}

// rejectionOf finds a Submit error's row.
func rejectionOf(err error) int {
	for i, r := range rejections {
		if errors.Is(err, r.Err) {
			return i
		}
	}
	return len(rejections) - 1
}

// RejectionOf returns the table row of a Submit error, in-process or from
// serve.Client.
func RejectionOf(err error) Rejection { return rejections[rejectionOf(err)] }

// rejectionByCode is the client's way back from a wire code to its row.
func rejectionByCode(code string) Rejection {
	for _, r := range rejections {
		if r.Code == code {
			return r
		}
	}
	return rejections[len(rejections)-1]
}

// outcome is one row of the outcome table: the code (the outcome label of
// serve_jobs_completed_total and the "code" of a finished job over HTTP)
// and what matches it. Sentinel rows survive HTTP as themselves — a
// RemoteJob's error is errors.Is the same sentinel; the other rows cross as
// their code (see remoteError).
type outcome struct {
	code     string
	sentinel error
	// match decides the rows no sentinel describes.
	match func(error) bool
	// fault marks the outcome the server acts on: it is retried under
	// Config.Retry and counts towards Config.QuarantineAfter.
	fault bool
}

// outcomes is the outcome table, matched first to last; the last row is
// the catch-all.
var outcomes = [...]outcome{
	{code: "ok", match: func(err error) bool { return err == nil }},
	{code: "deadline", sentinel: context.DeadlineExceeded},
	{code: "cancelled", sentinel: context.Canceled},
	{code: "quarantined", sentinel: ErrShapeQuarantined},
	// A contained job fault: panic, stall, lost PE, failed transport.
	{code: "fault", fault: true, match: func(err error) bool {
		var je *kamsta.JobError
		return errors.As(err, &je)
	}},
	// The job met a distributed machine that a wire failure had already
	// condemned.
	{code: "world_failed", sentinel: kamsta.ErrWorldFailed},
	{code: "error"},
}

// outcomeOf finds a job error's row: the one it was counted under on the
// server if it crossed HTTP, else the first that matches.
func outcomeOf(err error) int {
	var re *remoteError
	if errors.As(err, &re) {
		return re.row
	}
	for i, o := range outcomes {
		if o.match != nil && o.match(err) || o.sentinel != nil && errors.Is(err, o.sentinel) {
			return i
		}
	}
	return len(outcomes) - 1
}

// Outcome names how a job ended — "ok" for a nil error — with the same word
// the server's completion counter used, whether err came from Job.Wait or
// crossed HTTP into RemoteJob.Wait.
func Outcome(err error) string { return outcomes[outcomeOf(err)].code }

// remoteError is a finished job's error after it crossed HTTP: the server's
// message and the outcome row it was counted under. It unwraps to the row's
// sentinel, so errors.Is answers as it does in-process.
type remoteError struct {
	row int
	msg string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return outcomes[e.row].sentinel }

// remoteOutcome rebuilds a finished job's error from its wire code; an
// unknown code is the catch-all row.
func remoteOutcome(code, msg string) error {
	for i, o := range outcomes {
		if o.code == code {
			return &remoteError{row: i, msg: msg}
		}
	}
	return &remoteError{row: len(outcomes) - 1, msg: msg}
}
