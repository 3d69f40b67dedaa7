package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/obs"
)

// hold occupies the one machine that serves pes deterministically: it
// submits a job whose observer parks PE 0 at its first progress event and
// returns once the job is parked there. release lets it go — to completion,
// or, with thenPanic, into a contained PE panic (a fault outcome).
func hold(t *testing.T, s *Server, pes int, thenPanic bool) (held *Job, release func()) {
	t.Helper()
	parked, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	observer := func(kamsta.Event) {
		once.Do(func() {
			close(parked)
			<-gate
			if thenPanic {
				panic("outcome_test: injected fault")
			}
		})
	}
	held, err := s.Submit(Request{
		Tenant: "holder", PEs: pes, Edges: testEdges(99, 20, 60),
		Options: []kamsta.RunOption{kamsta.WithObserver(observer)},
	})
	if err != nil {
		t.Fatalf("hold: %v", err)
	}
	select {
	case <-parked:
	case <-held.Done():
		_, err := held.Wait(context.Background())
		t.Fatalf("hold: the job ended (%v) before its observer saw an event", err)
	}
	var open sync.Once
	release = func() { open.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return held, release
}

// lastResponse records what the server last answered, under the client.
type lastResponse struct {
	status     int
	retryAfter string
	code       string
}

func (lr *lastResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	var body struct{ Code string }
	_ = json.Unmarshal(raw, &body)
	*lr = lastResponse{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), code: body.Code}
	return resp, nil
}

func recordedClient(t *testing.T, s *Server) (*Client, *lastResponse) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	lr := &lastResponse{}
	return &Client{BaseURL: ts.URL, PollWait: 200 * time.Millisecond,
		HTTPClient: &http.Client{Transport: lr}}, lr
}

func counterValue(reg *obs.Registry, name, tenant, key, value string) int64 {
	return reg.Counter(name, "", obs.L("tenant", tenant), obs.L(key, value)).Value()
}

// rejectionScenarios provokes every row of the rejection table: each builds
// a server in the state that rejects the returned (wire-expressible) request
// with that row, and keeps it there until the test ends.
var rejectionScenarios = map[string]func(t *testing.T, cfg Config) (*Server, Request){
	"queue_full": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.QueueBound = 1
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(1, 10, 20)}); err != nil {
			t.Fatal(err)
		}
		return s, Request{Tenant: "a", Edges: testEdges(2, 10, 20)}
	},
	"tenant_queue_full": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.QueueBound, cfg.TenantQueueBound = 8, 1
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(1, 10, 20)}); err != nil {
			t.Fatal(err)
		}
		return s, Request{Tenant: "a", Edges: testEdges(2, 10, 20)}
	},
	"shed_deadline": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.ShedMinSamples = 1
		s := newTestServer(t, cfg)
		for i := 0; i < 8; i++ {
			s.shed.observe(2, 1.0) // recent dispatches took ~1s each
		}
		hold(t, s, 2, false)
		if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(1, 10, 20)}); err != nil {
			t.Fatal(err)
		}
		return s, Request{Tenant: "a", Edges: testEdges(2, 10, 20), Deadline: 50 * time.Millisecond}
	},
	"brownout": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.QueueBound, cfg.BrownoutFraction = 8, 0.25 // brownout at depth 2
		cfg.Batch = BatchConfig{MaxJobs: 4, MaxEdges: 1 << 16}
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		for i := int64(0); i < 2; i++ {
			if _, err := s.Submit(Request{Tenant: "a", Edges: testEdges(i, 10, 20), NoBatch: true}); err != nil {
				t.Fatal(err)
			}
		}
		return s, Request{Tenant: "a", Edges: testEdges(2, 10, 20)}
	},
	"draining": func(t *testing.T, cfg Config) (*Server, Request) {
		s := newTestServer(t, cfg)
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s, Request{Tenant: "a", Edges: testEdges(2, 10, 20)}
	},
	"quarantined": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.Pool = []PoolShape{{PEs: 2}, {PEs: 4}}
		cfg.QuarantineAfter = 1
		s := newTestServer(t, cfg)
		held, release := hold(t, s, 2, true)
		release()
		<-held.Done()
		return s, Request{Tenant: "a", PEs: 2, Edges: testEdges(2, 10, 20)}
	},
	"unknown_tenant": func(t *testing.T, cfg Config) (*Server, Request) {
		cfg.Tenants = []TenantConfig{{Name: "a", Weight: 1}}
		return newTestServer(t, cfg), Request{Tenant: "mallory", Edges: testEdges(2, 10, 20)}
	},
	"no_shape": func(t *testing.T, cfg Config) (*Server, Request) {
		return newTestServer(t, cfg), Request{Tenant: "a", PEs: 3, Edges: testEdges(2, 10, 20)}
	},
	"bad_request": func(t *testing.T, cfg Config) (*Server, Request) {
		return newTestServer(t, cfg), Request{Tenant: "a"}
	},
}

// outcomeScenarios provokes every row of the outcome table: each returns an
// admitted job that ends in that row.
var outcomeScenarios = map[string]func(t *testing.T, cfg Config) (*Server, *Job){
	"ok": func(t *testing.T, cfg Config) (*Server, *Job) {
		s := newTestServer(t, cfg)
		return s, mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(1, 20, 60)})
	},
	"deadline": func(t *testing.T, cfg Config) (*Server, *Job) {
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		return s, mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(1, 20, 60), Deadline: time.Millisecond})
	},
	"cancelled": func(t *testing.T, cfg Config) (*Server, *Job) {
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		j := mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(1, 20, 60)})
		j.Cancel()
		return s, j
	},
	"quarantined": func(t *testing.T, cfg Config) (*Server, *Job) {
		// The job is queued behind a fault that costs the pool its only
		// machine: the quarantine sweep fails it.
		cfg.QuarantineAfter = 1
		s := newTestServer(t, cfg)
		_, release := hold(t, s, 2, true)
		j := mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(1, 20, 60)})
		release()
		return s, j
	},
	"fault": func(t *testing.T, cfg Config) (*Server, *Job) {
		s := newTestServer(t, cfg)
		held, release := hold(t, s, 2, true)
		release()
		return s, held
	},
	"world_failed": func(t *testing.T, cfg Config) (*Server, *Job) {
		// A pool machine that dies leaves service with the job that found it
		// dead (TestDeadMachineLeavesService), and whether that job sees the
		// dispatch fail (this row) or a superstep (a fault) is the kernel's
		// choice — so the row is entered by hand: withdraw a queued job and
		// finish it the way dispatch would have.
		s := newTestServer(t, cfg)
		hold(t, s, 2, false)
		j := mustSubmit(t, s, Request{Tenant: "a", Edges: testEdges(1, 20, 60)})
		if !s.sched.remove(j) {
			t.Fatal("queued job already taken")
		}
		s.finishJob(j, nil, fmt.Errorf("%w: dispatching msf job: broken pipe", kamsta.ErrWorldFailed))
		return s, j
	},
	"error": func(t *testing.T, cfg Config) (*Server, *Job) {
		s := newTestServer(t, cfg)
		return s, mustSubmit(t, s, Request{Tenant: "a", File: "/nonexistent/graph.gr"})
	},
}

func mustSubmit(t *testing.T, s *Server, req Request) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

// TestOutcomeParity walks every row of the rejection and outcome tables and
// requires the same answer on every path a job's ending is reported on: the
// in-process error, the HTTP response, serve.Client's reconstruction and the
// server's own counter.
func TestOutcomeParity(t *testing.T) {
	ctx := context.Background()
	for _, row := range rejections {
		t.Run("reject/"+row.Code, func(t *testing.T) {
			scenario := rejectionScenarios[row.Code]
			if scenario == nil {
				t.Fatalf("rejection row %q has no scenario", row.Code)
			}
			reg := obs.NewRegistry()
			s, req := scenario(t, Config{Pool: []PoolShape{{PEs: 2}}, Metrics: reg})
			c, last := recordedClient(t, s)
			_, local := s.Submit(req)
			_, remote := c.Submit(ctx, req)
			for path, err := range map[string]error{"in-process": local, "http": remote} {
				if !errors.Is(err, row.Err) {
					t.Errorf("%s: err = %v, want %v", path, err, row.Err)
				}
				if got := RejectionOf(err); got != row {
					t.Errorf("%s: RejectionOf = %+v, want %+v", path, got, row)
				}
			}
			if last.status != row.Status || last.code != row.Code {
				t.Errorf("wire: %d %q, want %d %q", last.status, last.code, row.Status, row.Code)
			}
			_, hinted := retryAfterOf(local)
			if _, ok := retryAfterOf(remote); ok != hinted || (last.retryAfter != "") != hinted {
				t.Errorf("in-process hint %v, but Retry-After %q and client hint %v", hinted, last.retryAfter, ok)
			}
			if hinted != (row.Class != Refused) {
				t.Errorf("class %d but hint %v: overload rejections, and only they, say when to come back", row.Class, hinted)
			}
			tenant := req.Tenant
			if got := counterValue(reg, "serve_jobs_rejected_total", tenant, "reason", row.Code); got != 2 {
				t.Errorf("serve_jobs_rejected_total{%s,%s} = %d, want 2", tenant, row.Code, got)
			}
		})
	}
	for i, row := range outcomes {
		t.Run("outcome/"+row.code, func(t *testing.T) {
			scenario := outcomeScenarios[row.code]
			if scenario == nil {
				t.Fatalf("outcome row %q has no scenario", row.code)
			}
			reg := obs.NewRegistry()
			s, j := scenario(t, Config{Pool: []PoolShape{{PEs: 2}}, Metrics: reg})
			c, last := recordedClient(t, s)
			_, local := j.Wait(ctx)
			_, remote := c.Attach(j.ID()).Wait(ctx)
			for path, err := range map[string]error{"in-process": local, "http": remote} {
				if got := Outcome(err); got != row.code {
					t.Errorf("%s: Outcome(%v) = %q, want %q", path, err, got, row.code)
				}
				if row.sentinel != nil && !errors.Is(err, row.sentinel) {
					t.Errorf("%s: err = %v, want %v", path, err, row.sentinel)
				}
				if (err == nil) != (i == 0) {
					t.Errorf("%s: err = %v in row %q", path, err, row.code)
				}
			}
			var je *kamsta.JobError
			if row.fault != errors.As(local, &je) {
				t.Errorf("in-process: fault row %v, but *kamsta.JobError %v (%v)", row.fault, !row.fault, local)
			}
			if local != nil && remote != nil && remote.Error() != local.Error() {
				t.Errorf("message changed over HTTP:\n in-process %q\n http       %q", local, remote)
			}
			wantCode := row.code
			if local == nil {
				wantCode = "" // a result, not an error body
			}
			if last.status != http.StatusOK || last.code != wantCode {
				t.Errorf("wire: %d %q, want 200 %q", last.status, last.code, wantCode)
			}
			if got := counterValue(reg, "serve_jobs_completed_total", j.Tenant(), "outcome", row.code); got != 1 {
				t.Errorf("serve_jobs_completed_total{%s,%s} = %d, want 1", j.Tenant(), row.code, got)
			}
		})
	}
	if len(rejectionScenarios) != len(rejections) || len(outcomeScenarios) != len(outcomes) {
		t.Errorf("%d/%d scenarios for %d/%d table rows: a scenario names no row",
			len(rejectionScenarios), len(outcomeScenarios), len(rejections), len(outcomes))
	}
}
