package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kamsta"
	"kamsta/internal/obs"
)

func newHTTPPair(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &Client{BaseURL: ts.URL, PollWait: 200 * time.Millisecond}
}

func TestHTTPEdgesRoundTrip(t *testing.T) {
	_, c := newHTTPPair(t, Config{Pool: []PoolShape{{PEs: 2}}})
	edges := testEdges(11, 60, 200)
	want := reference(t, edges)
	rj, err := c.Submit(context.Background(), Request{Tenant: "web", Edges: edges})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rep, err := rj.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if rep.TotalWeight != want.TotalWeight || rep.NumEdges != want.NumEdges {
		t.Fatalf("got weight %d/%d edges, want %d/%d",
			rep.TotalWeight, rep.NumEdges, want.TotalWeight, want.NumEdges)
	}
	if len(rep.MSTEdges) != want.NumEdges {
		t.Fatalf("mst_edges came back with %d entries, want %d", len(rep.MSTEdges), want.NumEdges)
	}
}

func TestHTTPSpecJob(t *testing.T) {
	_, c := newHTTPPair(t, Config{Pool: []PoolShape{{PEs: 4}}})
	rj, err := c.Submit(context.Background(), Request{
		Tenant: "web",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 500, M: 2500, Seed: 3},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rep, err := rj.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if rep.NumEdges == 0 || rep.TotalWeight == 0 {
		t.Fatalf("degenerate spec result: %+v", rep)
	}
}

func TestHTTPRejections(t *testing.T) {
	s, c := newHTTPPair(t, Config{
		Pool:    []PoolShape{{PEs: 2}},
		Tenants: []TenantConfig{{Name: "alpha", Weight: 1}},
	})
	edges := testEdges(12, 10, 20)
	if _, err := c.Submit(context.Background(), Request{Tenant: "mallory", Edges: edges}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	if _, err := c.Submit(context.Background(), Request{Tenant: "alpha"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("no source: err = %v, want ErrBadRequest", err)
	}
	if _, err := c.Submit(context.Background(), Request{Tenant: "alpha", File: "g.gr"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("file without AllowFiles: err = %v, want ErrBadRequest", err)
	}
	// Source/Options are in-process-only and rejected client-side.
	if _, err := c.Submit(context.Background(), Request{
		Tenant: "alpha", Source: kamsta.FromEdges(edges),
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("source over HTTP: err = %v, want ErrBadRequest", err)
	}
	// Draining servers answer 503 → ErrDraining.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), Request{Tenant: "alpha", Edges: edges}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: err = %v, want ErrDraining", err)
	}
}

func TestHTTPStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, c := newHTTPPair(t, Config{Pool: []PoolShape{{PEs: 2}}, Metrics: reg})
	rj, err := c.Submit(context.Background(), Request{Tenant: "web", Edges: testEdges(13, 30, 90)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.State != "running" || len(st.Machines) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !c.Healthy(context.Background()) {
		t.Fatal("healthz failed")
	}
	// /metrics exposes the serve_ series in Prometheus format.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"serve_jobs_submitted_total", "serve_queue_depth", "serve_machines"} {
		if !strings.Contains(buf.String(), series) {
			t.Fatalf("/metrics missing %s:\n%s", series, buf.String())
		}
	}
}

// TestHTTPMalformedRequests: hostile or broken bodies are 400s with a
// machine-readable code, never 500s or hangs.
func TestHTTPMalformedRequests(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}, MaxRequestBytes: 2048})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{"tenant": "web", "edges": [[1,2,`); resp.StatusCode != 400 {
		t.Fatalf("truncated JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"tenant": "web", "frobnicate": true}`); resp.StatusCode != 400 {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	// A body past MaxRequestBytes dies at the reader, not in memory.
	big := `{"tenant": "web", "edges": [` + strings.Repeat("[1,2,3],", 400) + `[1,2,3]]}`
	if resp := post(big); resp.StatusCode != 400 {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/not-a-number"); err != nil || resp.StatusCode != 400 {
		t.Fatalf("bad job id: status %v err %v, want 400", resp.StatusCode, err)
	}
	// The server is unharmed: a clean job still round-trips.
	c := &Client{BaseURL: ts.URL, PollWait: 200 * time.Millisecond}
	rj, err := c.Submit(context.Background(), Request{Tenant: "web", Edges: testEdges(15, 8, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPRetryAfter: overload rejections carry the server's Retry-After
// hint over the wire, and a resubmission lands once the queue has drained.
func TestHTTPRetryAfter(t *testing.T) {
	s, c := newHTTPPair(t, Config{Pool: []PoolShape{{PEs: 2}}, QueueBound: 1})
	// Park a job on the one machine, so the one-slot queue is free for
	// exactly one more admission.
	held, release := hold(t, s, 2, false)
	queued, err := s.Submit(Request{Tenant: "web", Edges: testEdges(16, 20, 60)})
	if err != nil {
		t.Fatal(err)
	}
	// The rejection surfaces with the server's backoff hint.
	_, err = c.Submit(context.Background(), Request{Tenant: "web", Edges: testEdges(17, 10, 20)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue err = %v, want ErrQueueFull", err)
	}
	if hint, ok := retryAfterOf(err); !ok || hint <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %v", err)
	}
	release()
	for _, j := range []*Job{held, queued} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	rj, err := c.Submit(context.Background(), Request{Tenant: "web", Edges: testEdges(18, 10, 20)})
	if err != nil {
		t.Fatalf("Submit after the queue drained: %v", err)
	}
	if _, err := rj.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSlowLorisHeaderTimeout runs the Handler under the same ReadHeaderTimeout
// cmd/mstserve configures and starves it: a connection that trickles its
// header is closed by the server while normal requests keep being served.
func TestSlowLorisHeaderTimeout(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 100 * time.Millisecond}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loris.Close() })
	if _, err := io.WriteString(loris, "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-"); err != nil {
		t.Fatal(err)
	}
	// While the loris stalls mid-header, the server still answers others.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz during slow-loris: %v / %v", resp, err)
	}
	resp.Body.Close()
	// The server must cut the stalled connection off, not hold it forever.
	if err := loris.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	for {
		if _, err := loris.Read(buf); err != nil {
			if errors.Is(err, io.EOF) {
				break // server closed the connection: contained
			}
			t.Fatalf("slow-loris connection not closed by the server: %v", err)
		}
	}
}

func TestHTTPCancelAndNotFound(t *testing.T) {
	s, c := newHTTPPair(t, Config{Pool: []PoolShape{{PEs: 2}}})
	rj, err := c.Submit(context.Background(), Request{
		Tenant: "web",
		Spec:   &kamsta.GraphSpec{Family: kamsta.GNM, N: 3000, M: 12000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rj.Cancel(context.Background()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	// The job is forgotten: polling it is a 404.
	if _, err := rj.Wait(context.Background()); err == nil {
		t.Fatal("Wait after cancel+forget should fail")
	}
	_ = s
}
